import math

import numpy as np
import pytest

from latfield._errors import ModelError
from latfield.covariance import (
    ADDITIVE,
    GNEITING,
    ISOTROPIC,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
    eval_factor,
)
from latfield.ratelab import (
    ADDITIVE_CONDITIONAL,
    CENTRAL,
    NONCENTRAL,
    NOT_COVERED,
    breuer_major_sigma2,
    classify,
    fbs_regime,
    rate_g,
)


def fgn(h):
    return FactorCovariance("fgn", hurst=h)


def cauchy(beta, dim=1):
    return FactorCovariance("cauchy", dim=dim, exponent=beta)


def wn(dim=1):
    return FactorCovariance("white_noise", dim=dim)


def separable(*factors):
    return CompositeCovariance(SEPARABLE, tuple(factors))


# ---------------------------------------------------------------------------
# rate table


def test_rate_table_examples():
    n = 1.0e4
    assert rate_g(2, 0.3, n) == pytest.approx(n**-0.5)
    assert rate_g(2, 0.6, n) == pytest.approx(n**-0.3)
    assert rate_g(2, 0.75, n) == pytest.approx(math.log(n) ** -0.5)
    # H = 1/2 belongs to the middle branch
    assert rate_g(2, 0.5, n) == pytest.approx(n**-0.5)
    assert rate_g(3, 0.7, n) == pytest.approx(n**-0.3)


def test_rate_table_rejects_out_of_range():
    with pytest.raises(ModelError):
        rate_g(2, 0.8, 100.0)  # beyond 1 - 1/(2q) = 0.75
    with pytest.raises(ModelError):
        rate_g(2, 0.0, 100.0)
    with pytest.raises(ModelError):
        rate_g(1, 0.3, 100.0)
    with pytest.raises(ModelError):
        rate_g(2, 0.3, 1.0)


def test_rate_table_is_continuous_across_branch_boundaries():
    n = 1.0e5
    for q in range(2, 7):
        edge = (2 * q - 3) / (2 * q - 2)
        below = rate_g(q, 0.5 - 1e-13, n)
        at = rate_g(q, 0.5, n)
        assert below == pytest.approx(at, rel=1e-9)
        just_in = rate_g(q, edge + 1e-13, n)
        at_edge = rate_g(q, edge, n)
        assert just_in == pytest.approx(at_edge, rel=1e-9)


# ---------------------------------------------------------------------------
# two-parameter regime rows


def test_regime_row_both_short():
    v = fbs_regime(0.3, 0.4, 2)
    assert v.verdict == CENTRAL and v.case == 1
    assert v.normalization["N"] == {
        "exponent": pytest.approx(0.1),
        "log_exponent": 0.0,
    }
    assert v.normalization["M"] == {
        "exponent": pytest.approx(0.3),
        "log_exponent": 0.0,
    }
    assert v.bound == (("N", 0.3), ("M", 0.4))
    # the bound factors evaluate to the product of the marginal rates
    prod = math.prod(rate_g(2, h, 500.0) for _, h in v.bound)
    assert prod == pytest.approx(rate_g(2, 0.3, 500.0) * rate_g(2, 0.4, 500.0))


def test_regime_row_one_critical():
    v = fbs_regime(0.3, 0.75, 2)
    assert v.case == 2 and v.verdict == CENTRAL
    assert v.normalization["M"] == {"exponent": 1.0, "log_exponent": -0.5}
    swapped = fbs_regime(0.75, 0.3, 2)
    assert swapped.case == 2
    assert swapped.normalization["N"] == {"exponent": 1.0, "log_exponent": -0.5}
    assert swapped.normalization["M"] == {
        "exponent": pytest.approx(0.1),
        "log_exponent": 0.0,
    }


def test_regime_row_both_critical():
    v = fbs_regime(0.75, 0.75, 2)
    assert v.case == 3
    assert v.normalization["N"]["log_exponent"] == -0.5
    assert v.normalization["M"]["log_exponent"] == -0.5


def test_regime_row_mixed():
    v = fbs_regime(0.3, 0.9, 2)
    assert v.case == 4 and v.verdict == CENTRAL
    # the long direction contributes a plain power, no log
    assert v.normalization["M"] == {"exponent": 1.0, "log_exponent": 0.0}
    # only the short direction appears in the rate bound
    assert v.bound == (("N", 0.3),)
    v5 = fbs_regime(0.75, 0.9, 2)
    assert v5.case == 5
    assert v5.normalization["N"] == {"exponent": 1.0, "log_exponent": -0.5}
    assert v5.bound == (("N", 0.75),)
    swapped = fbs_regime(0.9, 0.3, 2)
    assert swapped.case == 4 and swapped.bound == (("M", 0.3),)


def test_regime_row_both_long_is_noncentral():
    v = fbs_regime(0.9, 0.9, 2)
    assert v.verdict == NONCENTRAL
    assert v.case is None and v.bound is None


def test_regime_row_validation():
    with pytest.raises(ModelError):
        fbs_regime(0.3, 1.2, 2)
    with pytest.raises(ModelError):
        fbs_regime(0.3, 0.4, 1)


# ---------------------------------------------------------------------------
# limiting variance of short-range functionals


def test_sigma2_white_noise_is_factorial():
    for q in (1, 2, 3):
        coeffs = [0.0] * q + [1.0]
        out = breuer_major_sigma2((wn(),), coeffs, radius=5)
        assert out.value == pytest.approx(math.factorial(q))
        assert out.tail_estimate == 0.0
    out = breuer_major_sigma2((wn(), wn()), [0.0, 0.0, 1.0], radius=3)
    assert out.value == pytest.approx(2.0)


def test_sigma2_matches_direct_sum():
    factor = fgn(0.3)
    out = breuer_major_sigma2((factor,), [0.0, 0.0, 1.0], radius=50)
    lags = np.arange(-50, 51, dtype=float)[:, None]
    from latfield.covariance import _lag_values

    direct = 2.0 * np.sum(_lag_values(factor, lags) ** 2)
    assert out.value == pytest.approx(direct)


def test_sigma2_matches_direct_sum_on_a_2d_factor():
    # the box |z_j| <= radius of a 2-D factor, alone and times a 1-D factor
    plane, line = cauchy(5.0, dim=2), fgn(0.3)
    radius, coeffs = 12, [0.0, 0.0, 1.0, 0.5]
    box = range(-radius, radius + 1)
    plane_vals = np.array([eval_factor(plane, (a, b)) for a in box for b in box])
    line_vals = np.array([eval_factor(line, (a,)) for a in box])
    for factors, sums in (((plane,), lambda q: np.sum(plane_vals**q)),
                          ((plane, line), lambda q: np.sum(plane_vals**q) * np.sum(line_vals**q))):
        want = sum(a**2 * math.factorial(q) * sums(q) for q, a in enumerate(coeffs) if a)
        out = breuer_major_sigma2(factors, coeffs, radius=radius)
        assert out.value == pytest.approx(want, rel=1e-12)
        assert out.radius == radius


def test_sigma2_radius_stability():
    factor = fgn(0.3)
    coarse = breuer_major_sigma2((factor,), [0.0, 0.0, 1.0], radius=10_000)
    fine = breuer_major_sigma2((factor,), [0.0, 0.0, 1.0], radius=20_000)
    assert abs(coarse.value - fine.value) < 1e-8
    assert fine.tail_estimate < coarse.tail_estimate
    assert coarse.tail_estimate > abs(fine.value - coarse.value)


def test_sigma2_names_the_violating_factor():
    with pytest.raises(ModelError, match="factor 1"):
        breuer_major_sigma2((fgn(0.3), fgn(0.9)), [0.0, 0.0, 1.0], radius=10)
    with pytest.raises(ModelError, match="metadata"):
        breuer_major_sigma2(
            (FactorCovariance("tabulated", table={(0,): 1.0}),),
            [0.0, 1.0],
            radius=2,
        )


def test_sigma2_rejects_oversized_lag_boxes():
    with pytest.raises(ModelError, match="radius"):
        breuer_major_sigma2((wn(dim=3),), [0.0, 0.0, 1.0], radius=200)


# ---------------------------------------------------------------------------
# classifier


def test_classify_one_summable_factor_gives_central():
    cov = separable(fgn(0.3), fgn(0.9))
    v = classify(cov, 2)
    assert v.verdict == CENTRAL
    assert "short-range" in v.citation
    # factor 0 is the summable one: 2 * (2 - 2*0.3) = 2.8 > 1
    assert "0" in v.notes[0]
    # verdict does not depend on the factor order
    flipped = classify(separable(fgn(0.9), fgn(0.3)), 2)
    assert flipped.verdict == CENTRAL
    assert flipped.citation == v.citation


def test_classify_all_long_range_gives_noncentral():
    v = classify(separable(cauchy(0.3), cauchy(0.4)), 2)
    assert v.verdict == NONCENTRAL
    assert "long-range" in v.citation
    assert v.normalization["block0"]["exponent"] == pytest.approx(1.4)
    assert v.normalization["block1"]["exponent"] == pytest.approx(1.2)
    # odd rank is fine when the factors stay nonnegative
    assert classify(separable(cauchy(0.2), cauchy(0.3)), 3).verdict == NONCENTRAL


def test_classify_variance_growth_exponents():
    v = classify(separable(fgn(0.3), fgn(0.9)), 2)
    assert v.normalization["block0"] == {"exponent": 1.0, "log_exponent": 0.0}
    assert v.normalization["block1"] == {
        "exponent": pytest.approx(1.6),
        "log_exponent": 0.0,
    }
    # boundary factor: decay * rank == dim carries a log flag
    boundary = classify(separable(cauchy(0.5), cauchy(0.3)), 2)
    assert boundary.verdict == NOT_COVERED
    assert boundary.normalization["block0"] == {
        "exponent": 1.0,
        "log_exponent": 1.0,
    }


def test_classify_isotropic_is_not_covered():
    cov = CompositeCovariance(
        ISOTROPIC, (cauchy(0.5, dim=2),), block_dims=(1, 1)
    )
    v = classify(cov, 2)
    assert v.verdict == NOT_COVERED
    assert any("marginal" in note for note in v.notes)


def test_classify_requires_metadata():
    table = FactorCovariance("tabulated", table={(0,): 1.0, (1,): 0.5})
    with pytest.raises(ModelError, match="incomplete"):
        classify(separable(table, fgn(0.3)), 2)


def test_classify_gneiting_single_growing_block():
    cov = CompositeCovariance(GNEITING, (cauchy(3.0), cauchy(0.5)))
    v = classify(cov, 2, growth=(1.0, 0.0))
    assert v.verdict == CENTRAL
    assert "gneiting" in v.citation
    assert v.dominant_block == 0
    # both blocks growing: the sandwich argument does not apply
    assert classify(cov, 2, growth=(1.0, 1.0)).verdict == NOT_COVERED
    assert classify(cov, 2).verdict == NOT_COVERED
    # growing block long-range: only the Gaussian direction is covered
    long_side = classify(cov, 2, growth=(0.0, 1.0))
    assert long_side.verdict == NOT_COVERED


def test_classify_additive_dominant_block_follows_growth():
    cov = CompositeCovariance(
        ADDITIVE, (cauchy(0.48), cauchy(3.0)), weights=(0.1, 0.9)
    )
    fast_short = classify(cov, 2, growth=(1.0, 0.75))
    assert fast_short.verdict == ADDITIVE_CONDITIONAL
    assert fast_short.dominant_block == 1
    assert any("Gaussian" in note for note in fast_short.notes)
    slow_long = classify(cov, 2, growth=(0.5, 1.0))
    assert slow_long.verdict == ADDITIVE_CONDITIONAL
    assert slow_long.dominant_block == 0
    assert any("non-Gaussian" in note for note in slow_long.notes)
    # gamma decay exponents: block0 min(0.96, 1) * g, block1 min(6, 1) * g
    assert fast_short.normalization["block0"]["exponent"] == pytest.approx(-0.96)
    assert fast_short.normalization["block1"]["exponent"] == pytest.approx(-0.75)


def test_classify_additive_ties_and_signs():
    tied = CompositeCovariance(
        ADDITIVE, (cauchy(2.0), cauchy(3.0)), weights=(0.5, 0.5)
    )
    v = classify(tied, 2, growth=(1.0, 1.0))
    assert v.verdict == NOT_COVERED
    signed = CompositeCovariance(
        ADDITIVE, (fgn(0.3), cauchy(3.0)), weights=(0.5, 0.5)
    )
    out = classify(signed, 2)
    assert out.verdict == NOT_COVERED
    assert any("negative" in note for note in out.notes)
    with pytest.raises(ModelError):
        classify(tied, 2, growth=(1.0,))
