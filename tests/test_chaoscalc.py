"""Chaos diagnostics certified against brute-force enumeration oracles.

The oracles here deliberately take the slow road: pair sums enumerate
point pairs through the dense covariance matrix, contraction norms use a
4-index einsum over point 4-tuples, and small-lattice cumulants come from
the pairing oracle.  The module under test must agree to near machine
precision.
"""
import math

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from latfield import chaoscalc
from latfield._errors import ModelError, NumericalError
from latfield.chaoscalc import (
    AdditiveVariance,
    ChaosReport,
    additive_variance,
    chaos_report,
    contraction_norm,
    cq_constant,
    fourth_cumulant,
    gamma_quotient,
    reduction_ratio,
    tv_bound,
    variance_hermite,
    variance_indicator,
    variance_phi,
)
from latfield.covariance import (
    ADDITIVE,
    CAUCHY,
    FGN,
    GNEITING,
    SEPARABLE,
    TABULATED,
    WHITE_NOISE,
    CompositeCovariance,
    FactorCovariance,
    eval_factor,
)
from latfield.fieldsim import LatticeSpec
from latfield.hermite import CUSTOM, INDICATOR, PURE, HermiteSpec, hermite_coefficients
from latfield.oracle import (
    WickProblem,
    lattice_covariance_matrix,
    oracle_functional_moment,
    wick_moment,
)


def _sep(*factors):
    return CompositeCovariance(SEPARABLE, tuple(factors))


def _brute_variance(cov, lattice, q):
    matrix = lattice_covariance_matrix(cov, lattice)
    return math.factorial(q) * float(np.sum(matrix**q))


def _brute_contraction(cov, lattice, q, r):
    matrix = lattice_covariance_matrix(cov, lattice)
    a, b = matrix**r, matrix ** (q - r)
    return float(np.einsum("xz,yu,xy,zu->", a, a, b, b))


SMALL_MODELS = [
    (
        _sep(FactorCovariance(FGN, hurst=0.3), FactorCovariance(FGN, hurst=0.9)),
        LatticeSpec(((4,), (4,))),
    ),
    (
        _sep(
            FactorCovariance(CAUCHY, exponent=0.8, dim=2),
            FactorCovariance(FGN, hurst=0.4),
        ),
        LatticeSpec(((3, 2), (4,))),
    ),
    (
        CompositeCovariance(
            ADDITIVE,
            (
                FactorCovariance(CAUCHY, exponent=0.5),
                FactorCovariance(FGN, hurst=0.7),
            ),
            weights=(0.4, 0.6),
        ),
        LatticeSpec(((3,), (5,))),
    ),
    (
        CompositeCovariance(
            GNEITING,
            (
                FactorCovariance(CAUCHY, exponent=1.0),
                FactorCovariance(CAUCHY, exponent=0.7),
            ),
        ),
        LatticeSpec(((4,), (3,))),
    ),
]


def test_variance_closed_cases():
    one = LatticeSpec(((1,),))
    unit = _sep(FactorCovariance(FGN, hurst=0.7))
    for q in (1, 2, 3, 5):
        assert variance_hermite(unit, one, q) == pytest.approx(math.factorial(q))
    wn = _sep(FactorCovariance(WHITE_NOISE))
    assert variance_hermite(wn, LatticeSpec(((17,),)), 2) == pytest.approx(34.0)


def test_variance_matches_brute_force():
    for cov, lattice in SMALL_MODELS:
        for q in (1, 2, 3):
            got = variance_hermite(cov, lattice, q)
            want = _brute_variance(cov, lattice, q)
            assert got == pytest.approx(want, rel=1e-12), (cov.structure, q)


def test_variance_guards():
    cov = _sep(FactorCovariance(FGN, hurst=0.5))
    lat = LatticeSpec(((4,),))
    with pytest.raises(ModelError):
        variance_hermite(cov, lat, 0)
    with pytest.raises(ModelError):
        variance_hermite(cov, lat, 31)
    with pytest.raises(ModelError):
        variance_hermite(cov, LatticeSpec(((4,), (4,))), 2)


def test_contraction_closed_cases():
    one = LatticeSpec(((1,),))
    unit = _sep(FactorCovariance(CAUCHY, exponent=1.0))
    for q, r in ((2, 1), (3, 1), (3, 2), (5, 2)):
        assert contraction_norm(unit, one, q, r) == pytest.approx(1.0)
    wn = _sep(FactorCovariance(WHITE_NOISE))
    assert contraction_norm(wn, LatticeSpec(((9,),)), 2, 1) == pytest.approx(9.0)
    with pytest.raises(ModelError):
        contraction_norm(unit, one, 2, 2)
    with pytest.raises(ModelError):
        contraction_norm(unit, one, 2, 0)


def test_contraction_matches_brute_force():
    for cov, lattice in SMALL_MODELS:
        for q in (2, 3, 4):
            for r in range(1, q):
                got = contraction_norm(cov, lattice, q, r)
                want = _brute_contraction(cov, lattice, q, r)
                assert got == pytest.approx(want, rel=1e-12), (cov.structure, q, r)


def test_contraction_symmetry_and_bound():
    for cov, lattice in SMALL_MODELS:
        for q in (3, 4):
            var = variance_hermite(cov, lattice, q)
            for r in range(1, q):
                lhs = contraction_norm(cov, lattice, q, r)
                rhs = contraction_norm(cov, lattice, q, q - r)
                assert lhs == pytest.approx(rhs, rel=1e-12)
                assert lhs <= (var / math.factorial(q)) ** 2 * (1 + 1e-12)


def test_contraction_matches_dense_trace_past_512_points():
    # a 1-D factor past 512 points, against the plain dense-matrix trace
    factor = FactorCovariance(FGN, hurst=0.85)
    n = 600
    cov = _sep(factor)
    lat = LatticeSpec(((n,),))
    col = np.array([eval_factor(factor, (k,)) for k in range(n)])
    m = toeplitz(col)
    for q, r in ((2, 1), (3, 1), (3, 2)):
        ab = (m**r) @ (m ** (q - r))
        want = float(np.einsum("ij,ji->", ab, ab))
        assert contraction_norm(cov, lat, q, r) == pytest.approx(want, rel=1e-10)


ORACLE_MODELS = [
    (_sep(FactorCovariance(FGN, hurst=0.7)), LatticeSpec(((1,),))),
    (
        _sep(FactorCovariance(TABULATED, table={(0,): 1.0, (1,): 0.5})),
        LatticeSpec(((2,),)),
    ),
    (
        _sep(FactorCovariance(FGN, hurst=0.6), FactorCovariance(FGN, hurst=0.8)),
        LatticeSpec(((2,), (2,))),
    ),
    (_sep(FactorCovariance(CAUCHY, exponent=0.5)), LatticeSpec(((4,),))),
    (
        _sep(FactorCovariance(TABULATED, table={(0,): 1.0, (1,): 0.9, (2,): 0.7})),
        LatticeSpec(((3,),)),
    ),
]


def test_variance_and_cumulant_match_pairing_oracle():
    for cov, lattice in ORACLE_MODELS:
        for q in (1, 2, 3):
            e2 = oracle_functional_moment(cov, lattice, q, order=2)
            assert variance_hermite(cov, lattice, q) == pytest.approx(
                e2, rel=1e-10
            )
            if q == 1:
                continue
            e4 = oracle_functional_moment(cov, lattice, q, order=4)
            want = (e4 - 3.0 * e2**2) / e2**2
            got, exact = fourth_cumulant(cov, lattice, q)
            assert exact
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_fourth_cumulant_closed_cases():
    one = LatticeSpec(((1,),))
    unit = _sep(FactorCovariance(FGN, hurst=0.7))
    assert fourth_cumulant(unit, one, 1) == (0.0, True)
    k2, exact2 = fourth_cumulant(unit, one, 2)
    assert exact2 and k2 == pytest.approx(12.0)
    k3, exact3 = fourth_cumulant(unit, one, 3)
    assert exact3 and k3 == pytest.approx(90.0)


def test_fourth_cumulant_upper_bound_q4():
    one = LatticeSpec(((1,),))
    unit = _sep(FactorCovariance(FGN, hurst=0.7))
    bound, exact = fourth_cumulant(unit, one, 4)
    assert not exact
    assert bound == pytest.approx(636.0)  # sum_r binom^2 (1 + binom) at one point
    # the true kappa_4 of H_4(N), by pairing enumeration (degree 16)
    e4 = wick_moment(WickProblem(np.eye(1), ((0, 4),) * 4))
    true = (e4 - 3.0 * 24.0**2) / 24.0**2
    assert 0.0 <= true <= bound


def test_fourth_cumulant_nonnegative():
    for cov, lattice in SMALL_MODELS:
        for q in (2, 3, 4):
            value, _ = fourth_cumulant(cov, lattice, q)
            assert value >= 0.0


def test_fourth_cumulant_clique_cap():
    cov = _sep(FactorCovariance(FGN, hurst=0.75))
    value, exact = fourth_cumulant(cov, LatticeSpec(((300,),)), 3)
    assert not exact  # 300 points exceed the exact-clique cap
    assert value >= 0.0
    # under the cap the exact identity is used
    _, exact_small = fourth_cumulant(cov, LatticeSpec(((200,),)), 3)
    assert exact_small


def test_cq_constant_values():
    assert cq_constant(2) == pytest.approx(8.0)
    assert cq_constant(3) == pytest.approx(math.sqrt(4320.0))
    with pytest.raises(ModelError):
        cq_constant(1)


def test_tv_bound():
    # two single-point factors: 8 * sqrt(12 * 12) = 96, clamped to 1
    ones = _sep(
        FactorCovariance(FGN, hurst=0.7), FactorCovariance(CAUCHY, exponent=1.0)
    )
    assert tv_bound(ones, LatticeSpec(((1,), (1,))), 2) == 1.0

    cov = _sep(FactorCovariance(FGN, hurst=0.2), FactorCovariance(FGN, hurst=0.2))
    lat = LatticeSpec(((256,), (256,)))
    bound = tv_bound(cov, lat, 2)
    assert 0.0 < bound < 1.0
    k4s = [
        fourth_cumulant(_sep(f), LatticeSpec(((256,),)), 2)[0] for f in cov.factors
    ]
    assert bound == pytest.approx(8.0 * math.sqrt(k4s[0] * k4s[1]), rel=1e-12)
    # when one factor's cumulant is at most 1, the product can only improve
    # on that factor's own bound
    assert max(k4s) <= 1.0
    assert bound <= 8.0 * math.sqrt(k4s[0])

    iso = CompositeCovariance(
        ADDITIVE,
        (FactorCovariance(CAUCHY, exponent=1.0), FactorCovariance(CAUCHY, exponent=2.0)),
        weights=(0.5, 0.5),
    )
    with pytest.raises(ModelError):
        tv_bound(iso, LatticeSpec(((4,), (4,))), 2)


def test_variance_phi():
    cov = _sep(FactorCovariance(FGN, hurst=0.3), FactorCovariance(FGN, hurst=0.9))
    lat = LatticeSpec(((6,), (6,)))
    phi2 = HermiteSpec(PURE, q=2)
    result = variance_phi(cov, lat, hermite_coefficients(phi2), phi=phi2)
    assert result.value == pytest.approx(variance_hermite(cov, lat, 2), rel=1e-14)
    assert result.tail_bound == 0.0 and result.rank == 2

    # single point, indicator at zero: Var = 1/4 exactly, no truncation
    ind = HermiteSpec(INDICATOR, level=0.0)
    one = LatticeSpec(((1,),))
    unit = _sep(FactorCovariance(FGN, hurst=0.7))
    got = variance_phi(unit, one, hermite_coefficients(ind), phi=ind)
    assert got.rank == 1
    assert got.tail_bound == 0.0
    assert abs(got.value - 0.25) <= 1e-12

    # a_1 = a_3 = 1 on white noise: n * 1! + n * 3! = 7n
    wn = _sep(FactorCovariance(WHITE_NOISE))
    coeffs = np.array([0.0, 1.0, 0.0, 1.0])
    got = variance_phi(wn, LatticeSpec(((11,),)), coeffs)
    assert got.value == pytest.approx(77.0)
    assert got.tail_bound is None

    # tanh has chaoses past qmax = 20: the bound is positive and caps the
    # distance to a longer chaos sum
    fgn = _sep(FactorCovariance(FGN, hurst=0.7))
    lat = LatticeSpec(((50,),))
    th = HermiteSpec(CUSTOM, func=np.tanh)
    got = variance_phi(fgn, lat, hermite_coefficients(th), phi=th)
    longer = variance_phi(fgn, lat, hermite_coefficients(th, qmax=29), phi=th)
    assert 0.0 < longer.tail_bound < got.tail_bound
    assert abs(longer.value - got.value) <= got.tail_bound


def test_variance_phi_takes_the_exact_indicator_lag_sum():
    cov = _sep(FactorCovariance(FGN, hurst=0.7), FactorCovariance(CAUCHY, exponent=1.5))
    lat = LatticeSpec(((40,), (30,)))
    for level in (0.0, 0.8):
        ind = HermiteSpec(INDICATOR, level=level)
        got = variance_phi(cov, lat, hermite_coefficients(ind), phi=ind)
        assert got.value == variance_indicator(cov, lat, level)
        assert got.tail_bound == 0.0


def test_additive_chaos_variance_is_the_binomial_decomposition():
    cov = CompositeCovariance(
        ADDITIVE,
        (FactorCovariance(CAUCHY, exponent=0.48), FactorCovariance(CAUCHY, exponent=3.0)),
        weights=(0.1, 0.9),
    )
    lat = LatticeSpec(((64,), (23,)))
    for q in (1, 2, 3):
        total = additive_variance(cov, lat, q).total
        assert variance_hermite(cov, lat, q) == total
        assert chaos_report(cov, lat, q).variance == total


def test_reduction_ratio():
    one = LatticeSpec(((1,),))
    unit = _sep(FactorCovariance(FGN, hurst=0.7))
    pure3 = hermite_coefficients(HermiteSpec(PURE, q=3))
    assert reduction_ratio(unit, one, pure3) == pytest.approx(1.0)
    coeffs = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
    assert reduction_ratio(unit, one, coeffs) == pytest.approx(13.0)


def test_reduction_ratio_trend():
    # rank 1, long-memory factor: the leading chaos takes over as n grows
    cov = _sep(FactorCovariance(CAUCHY, exponent=0.5))
    coeffs = np.array([0.0, 1.0, 0.0, 0.5])
    ratios = [
        reduction_ratio(cov, LatticeSpec(((n,),)), coeffs)
        for n in (16, 64, 256, 1024)
    ]
    assert all(r > 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_additive_variance():
    cov = CompositeCovariance(
        ADDITIVE,
        (FactorCovariance(CAUCHY, exponent=1.0), FactorCovariance(FGN, hurst=0.8)),
        weights=(0.3, 0.7),
    )
    ones = LatticeSpec(((1,), (1,)))
    got = additive_variance(cov, ones, 1)
    assert got.terms == pytest.approx({0: 0.7, 1: 0.3})
    assert got.total == pytest.approx(1.0)

    lat = LatticeSpec(((2,), (2,)))
    for q in (1, 2, 3):
        result = additive_variance(cov, lat, q)
        assert set(result.terms) == set(range(q + 1))
        assert all(v >= 0.0 for v in result.terms.values())
        assert result.total == pytest.approx(
            _brute_variance(cov, lat, q), rel=1e-12
        )
        assert result.total == pytest.approx(
            variance_hermite(cov, lat, q), rel=1e-12
        )

    sep = _sep(FactorCovariance(FGN, hurst=0.5))
    with pytest.raises(ModelError):
        additive_variance(sep, LatticeSpec(((4,),)), 2)


def test_gamma_quotient():
    # constant covariance: gamma = kappa^q regardless of the window
    const = FactorCovariance(TABULATED, table={(z,): 1.0 for z in range(8)})
    got = gamma_quotient(const, (5,), 3, weight=0.6)
    assert got.exact == pytest.approx(0.6**3)

    wn = FactorCovariance(WHITE_NOISE)
    got = gamma_quotient(wn, (10,), 2, weight=0.5)
    assert got.exact == pytest.approx(0.25 / 10.0)
    assert got.surrogate == pytest.approx(0.25 / 10.0)

    # long memory: gamma(n) ~ n^(-2 beta) for cauchy with beta < 1/2, q = 2
    beta = 0.3
    cauchy = FactorCovariance(CAUCHY, exponent=beta)
    ns = np.array([2**6, 2**8, 2**10, 2**12])
    gammas = np.array([gamma_quotient(cauchy, (int(n),), 2).exact for n in ns])
    slope = np.polyfit(np.log(ns), np.log(gammas), 1)[0]
    assert slope == pytest.approx(-2.0 * beta, abs=0.1)


def test_chaos_report(monkeypatch):
    cov = _sep(FactorCovariance(FGN, hurst=0.3), FactorCovariance(FGN, hurst=0.9))
    lat = LatticeSpec(((8,), (8,)))
    rep = chaos_report(cov, lat, 2)
    assert isinstance(rep, ChaosReport)
    assert rep.variance == pytest.approx(variance_hermite(cov, lat, 2))
    assert set(rep.contraction_norms) == {1}
    assert rep.fourth_exact
    assert rep.tv_bound is not None and 0.0 < rep.tv_bound <= 1.0

    rep1 = chaos_report(cov, lat, 1)
    assert rep1.contraction_norms == {}
    assert rep1.fourth_cumulant == 0.0
    assert rep1.tv_bound is None

    # the report equals the standalone diagnostics
    long_short = _sep(FactorCovariance(FGN, hurst=0.7), FactorCovariance(FGN, hurst=0.3))
    gneiting = CompositeCovariance(
        GNEITING, (FactorCovariance(CAUCHY, exponent=1.0), FactorCovariance(CAUCHY, exponent=0.7))
    )
    cases = [
        (long_short, LatticeSpec(((64,), (16,))), 2, True),
        (long_short, LatticeSpec(((40,), (12,))), 3, True),    # under CLIQUE_LIMIT
        (long_short, LatticeSpec(((300,), (12,))), 3, False),  # over CLIQUE_LIMIT
        (_sep(FactorCovariance(FGN, hurst=0.6), FactorCovariance(CAUCHY, exponent=0.8, dim=2)),
         LatticeSpec(((20,), (4, 3))), 4, False),
        (gneiting, LatticeSpec(((6,), (5,))), 3, True),
    ]
    for cov, lat, q, want_exact in cases:
        rep = chaos_report(cov, lat, q)
        assert rep.variance == pytest.approx(variance_hermite(cov, lat, q), rel=1e-12)
        assert set(rep.contraction_norms) == set(range(1, q))
        for r, norm in rep.contraction_norms.items():
            assert norm == pytest.approx(contraction_norm(cov, lat, q, r), rel=1e-12)
        k4, exact = fourth_cumulant(cov, lat, q)
        assert rep.fourth_cumulant == pytest.approx(k4, rel=1e-12)
        assert rep.fourth_exact == exact == want_exact
        if cov.structure == SEPARABLE:
            assert rep.tv_bound == pytest.approx(tv_bound(cov, lat, q), rel=1e-12)
        else:
            assert rep.tv_bound is None

    # each factor's contraction is computed once per report
    calls = []
    original = chaoscalc._trace_abab

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(chaoscalc, "_trace_abab", counted)
    # r and q - r share one norm, so only r <= q/2 is computed per factor
    for q, want in ((2, 2), (3, 2), (4, 4)):
        calls.clear()
        chaos_report(long_short, LatticeSpec(((64,), (16,))), q)
        assert len(calls) == want, q


def test_non_separable_report_builds_one_dense_matrix(monkeypatch):
    # contraction norms and the clique sum come from one full-lattice matrix
    calls = []
    original = chaoscalc.dense_covariance_matrix

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(chaoscalc, "dense_covariance_matrix", counted)
    gneiting = CompositeCovariance(
        GNEITING, (FactorCovariance(CAUCHY, exponent=1.0), FactorCovariance(CAUCHY, exponent=0.7)))
    additive = CompositeCovariance(
        ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.5), FactorCovariance(FGN, hurst=0.7)),
        weights=(0.4, 0.6))
    for cov in (gneiting, additive):
        for q in (3, 4, 6):
            calls.clear()
            chaos_report(cov, LatticeSpec(((6,), (5,))), q)
            assert len(calls) == 1, (cov.structure, q)


def test_factorized_variances_are_checked_against_the_lag_sum(monkeypatch):
    lat = LatticeSpec(((64,), (23,)))
    sep = _sep(FactorCovariance(FGN, hurst=0.7), FactorCovariance(CAUCHY, exponent=0.5))
    add = CompositeCovariance(
        ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.48), FactorCovariance(CAUCHY, exponent=3.0)),
        weights=(0.1, 0.9))
    variance_hermite(sep, lat, 2)
    additive_variance(add, lat, 2)
    # a direct lag sum off by 1e-10 relative is caught for both structures
    original = chaoscalc._lag_sum
    monkeypatch.setattr(chaoscalc, "_lag_sum", lambda *args: original(*args) * (1.0 + 1e-10))
    with pytest.raises(NumericalError, match="direct lag sum"):
        variance_hermite(sep, lat, 2)
    with pytest.raises(NumericalError, match="direct lag sum"):
        additive_variance(add, lat, 2)


def test_variance_indicator():
    # at level 0 the orthant probability is 1/4 + arcsin(rho) / 2 pi
    factor = FactorCovariance(FGN, hurst=0.3)
    n = 500
    lags = np.arange(-(n - 1), n)
    rho = np.array([eval_factor(factor, [z]) for z in lags])
    want = float(np.sum((n - np.abs(lags)) * np.arcsin(rho) / (2.0 * np.pi)))
    got = variance_indicator(_sep(factor), LatticeSpec(((n,),)), 0.0)
    assert got == pytest.approx(want, rel=1e-12)

    # two points at nonzero levels, against scipy's bivariate normal CDF
    factor = FactorCovariance(FGN, hurst=0.8)
    rho = eval_factor(factor, [1])
    for level in (0.7, -1.3):
        p = ndtr(-level)
        both = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]]).cdf(
            [-level, -level])
        want = 2.0 * p * (1.0 - p) + 2.0 * (both - p**2)
        got = variance_indicator(_sep(factor), LatticeSpec(((2,),)), level)
        assert got == pytest.approx(want, rel=1e-12), level
