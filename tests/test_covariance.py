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
    decay_exponent,
    embedding_spectrum,
    eval_composite,
    eval_factor,
    gneiting_sandwich,
    is_nonnegative,
    summable_at_power,
)

FGN_075_LAG1 = 0.41421356237309515  # 0.5 * (2**1.5 - 2), i.e. sqrt(2) - 1


def _fgn(h):
    return FactorCovariance("fgn", dim=1, hurst=h)


def _cauchy(beta, dim=1):
    return FactorCovariance("cauchy", dim=dim, exponent=beta)


def test_factor_values_at_known_lags():
    assert eval_factor(_fgn(0.5), (1,)) == pytest.approx(0.0, abs=1e-15)
    assert eval_factor(_fgn(0.75), (1,)) == pytest.approx(FGN_075_LAG1, rel=1e-12)
    assert eval_factor(_cauchy(2.0), (1,)) == pytest.approx(0.5)
    # unit variance at lag 0 for every builtin family
    for model in (_fgn(0.3), _cauchy(1.3), FactorCovariance("exponential", scale=2.0),
                  FactorCovariance("white_noise")):
        assert eval_factor(model, (0,) * model.dim) == pytest.approx(1.0)


def test_factor_evenness_and_bounds():
    rng = np.random.default_rng(7)
    models = [_fgn(0.2), _fgn(0.8), _cauchy(0.7, dim=2),
              FactorCovariance("exponential", scale=1.5, dim=2)]
    for model in models:
        for _ in range(25):
            lag = rng.integers(-6, 7, size=model.dim)
            v = eval_factor(model, lag)
            assert v == pytest.approx(eval_factor(model, -lag), abs=1e-15)
            assert -1.0 <= v <= 1.0


def test_factor_input_validation():
    with pytest.raises(ModelError):
        eval_factor(_fgn(0.6), (1, 2))  # dimension mismatch
    with pytest.raises(ModelError):
        FactorCovariance("fgn", hurst=1.5)
    with pytest.raises(ModelError):
        FactorCovariance("cauchy", exponent=-1.0)
    with pytest.raises(ModelError):
        FactorCovariance("spherical")
    tab = FactorCovariance("tabulated", dim=1, table={(0,): 1.0, (1,): 0.25})
    assert eval_factor(tab, (-1,)) == pytest.approx(0.25)  # even extension
    with pytest.raises(ModelError):
        eval_factor(tab, (2,))  # missing lag


def test_constructors_reject_non_finite_parameters():
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"family": "cauchy", "exponent": nan}, {"family": "cauchy", "exponent": inf},
                   {"family": "exponential", "scale": nan},
                   {"family": "exponential", "scale": inf},
                   {"family": "tabulated", "table": {(0,): 1.0, (1,): nan}}):
        with pytest.raises(ModelError, match="finite"):
            FactorCovariance(**kwargs)
    for weights in ((nan, 0.9), (0.1, nan), (nan, nan)):
        with pytest.raises(ModelError, match="weights"):
            CompositeCovariance(ADDITIVE, (_cauchy(1.0), _fgn(0.6)), weights=weights)


def test_separable_product_law():
    f1, f2 = _fgn(0.7), _cauchy(1.2, dim=2)
    cov = CompositeCovariance(SEPARABLE, (f1, f2))
    rng = np.random.default_rng(3)
    for _ in range(30):
        lag = rng.integers(-5, 6, size=3)
        expected = eval_factor(f1, lag[:1]) * eval_factor(f2, lag[1:])
        assert eval_composite(cov, lag) == pytest.approx(expected, abs=1e-15)
    # example: factor values 0.5 and 0.25 multiply
    sep = CompositeCovariance(
        SEPARABLE,
        (_cauchy(2.0), FactorCovariance("tabulated", table={(0,): 1.0, (3,): 0.25})),
    )
    assert eval_composite(sep, (1, 3)) == pytest.approx(0.125)


def test_gneiting_axis_restrictions():
    cov = CompositeCovariance(GNEITING, (_cauchy(1.5), _cauchy(0.8)))
    c1, c2 = cov.factors
    for k in range(6):
        assert eval_composite(cov, (k, 0)) == pytest.approx(eval_factor(c1, (k,)))
        assert eval_composite(cov, (0, k)) == pytest.approx(eval_factor(c2, (k,)))
    with pytest.raises(ModelError):
        CompositeCovariance(
            GNEITING,
            (FactorCovariance("tabulated", table={(0,): 1.0}), _cauchy(1.0)),
        )


def test_gneiting_sandwich_exhaustive_8x8():
    cov = CompositeCovariance(GNEITING, (_cauchy(1.5), _cauchy(0.8)))
    diam = 7.0
    for z1 in range(-7, 8):
        for z2 in range(-7, 8):
            lower, upper = gneiting_sandwich(cov, (z1, z2), diam)
            val = eval_composite(cov, (z1, z2))
            assert lower <= val + 1e-15
            assert val <= upper + 1e-15
    assert gneiting_sandwich(cov, (0, 0), diam) == pytest.approx((1.0, 1.0))
    # on the block-1 axis both envelopes collapse onto c1
    lo, up = gneiting_sandwich(cov, (3, 0), diam)
    assert lo == pytest.approx(eval_factor(cov.factors[0], (3,)))
    assert up >= lo
    with pytest.raises(ModelError):
        gneiting_sandwich(CompositeCovariance(SEPARABLE, (_fgn(0.6),)), (1,), 4.0)


def test_additive_normalization():
    cov = CompositeCovariance(
        ADDITIVE, (_cauchy(0.4), _cauchy(3.0)), weights=(0.3, 0.7)
    )
    assert eval_composite(cov, (0, 0)) == pytest.approx(1.0)
    v = eval_composite(cov, (2, 5))
    expected = 0.3 * eval_factor(cov.factors[0], (2,)) + 0.7 * eval_factor(
        cov.factors[1], (5,)
    )
    assert v == pytest.approx(expected)
    with pytest.raises(ModelError):
        CompositeCovariance(ADDITIVE, (_cauchy(0.4), _cauchy(3.0)), weights=(0.5, 0.6))


def test_isotropic_profile():
    cov = CompositeCovariance(
        ISOTROPIC, (_cauchy(0.5, dim=2),), block_dims=(1, 1)
    )
    assert cov.blocks == (1, 1)
    assert eval_composite(cov, (3, 4)) == pytest.approx((1 + 25.0) ** -0.25)
    with pytest.raises(ModelError):
        CompositeCovariance(ISOTROPIC, (_cauchy(0.5, dim=2),), block_dims=(1, 2))


def test_embedding_spectrum_known_cases():
    wn = embedding_spectrum(FactorCovariance("white_noise"), (8,))
    assert np.allclose(wn.eigenvalues, 1.0)
    # H = 1/2 increments are white noise too
    half = embedding_spectrum(_fgn(0.5), (8,))
    assert np.allclose(half.eigenvalues, 1.0)
    rough = embedding_spectrum(_fgn(0.9), (8,))
    assert rough.min_eigenvalue >= 0.0
    assert rough.nonnegative
    assert rough.embedded_shape == (14,)


def test_embedding_spectrum_matches_dense_circulant():
    # spectrum of the embedded sequence == eigenvalues of the circulant matrix
    model = _fgn(0.8)
    rep = embedding_spectrum(model, (6,))
    m = rep.embedded_shape[0]
    first_row = np.array(
        [eval_factor(model, (min(k, m - k),)) for k in range(m)]
    )
    circ = np.array([np.roll(first_row, i) for i in range(m)])
    dense_eigs = np.sort(np.linalg.eigvalsh(circ))
    assert np.allclose(np.sort(rep.eigenvalues), dense_eigs, atol=1e-10)


def test_classifier_metadata():
    assert decay_exponent(_fgn(0.9)) == pytest.approx(0.2)
    assert decay_exponent(_cauchy(1.3)) == pytest.approx(1.3)
    assert decay_exponent(FactorCovariance("exponential", scale=1.0)) == np.inf
    assert is_nonnegative(_fgn(0.3)) is False
    assert is_nonnegative(_fgn(0.7)) is True
    assert summable_at_power(_cauchy(0.3), 2) is False   # 0.6 < 1
    assert summable_at_power(_cauchy(0.6), 2) is True    # 1.2 > 1
    assert summable_at_power(_fgn(0.3), 1) is True       # tail exponent 1.4
    tab = FactorCovariance("tabulated", table={(0,): 1.0})
    assert decay_exponent(tab) is None
