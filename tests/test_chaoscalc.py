"""Chaos diagnostics certified against brute-force enumeration oracles.

The oracles here deliberately take the slow road: pair sums enumerate
point pairs through the dense covariance matrix, contraction norms use a
4-index einsum over point 4-tuples, and small-lattice cumulants come from
the pairing oracle.  The module under test must agree to near machine
precision.
"""
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    EXPONENTIAL,
    FGN,
    GNEITING,
    ISOTROPIC,
    SEPARABLE,
    TABULATED,
    WHITE_NOISE,
    CompositeCovariance,
    FactorCovariance,
    _grid_vectors,
    composite_values,
    eval_factor,
)
from latfield.fieldsim import DENSE_LIMIT, LatticeSpec, dense_covariance_matrix
from latfield.hermite import CUSTOM, INDICATOR, PURE, HermiteSpec, hermite_eval
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


def _dense_trace_abab(col, q, r):
    m = toeplitz(col)
    ab = (m**r) @ (m ** (q - r))
    return float(np.einsum("ij,ji->", ab, ab))


def test_toeplitz_contraction_matches_dense_trace():
    # the displacement recurrence on the Toeplitz column against the dense
    # product, for r = q - r (P = Q) and r != q - r (P and Q = P^T)
    n = 600
    for hurst in (0.3, 0.7, 0.99):
        factor = FactorCovariance(FGN, hurst=hurst)
        lat = LatticeSpec(((n,),))
        col = np.array([eval_factor(factor, (k,)) for k in range(n)])
        for q, r in ((3, 1), (4, 1), (4, 2)):
            want = _dense_trace_abab(col, q, r)
            assert contraction_norm(_sep(factor), lat, q, r) == pytest.approx(
                want, rel=1e-12), (hurst, q, r)


def test_dense_limit_binds_multi_d_factors_only():
    # a 1-D factor past DENSE_LIMIT takes the Toeplitz column; the dense
    # reference trace((M M)^2) = ||M M||_F^2 is summed over row blocks of M M
    factor = FactorCovariance(FGN, hurst=0.7)
    n = 4100
    assert n > DENSE_LIMIT
    m = toeplitz(np.array([eval_factor(factor, (k,)) for k in range(n)]))
    want = sum(float(np.sum((m[i:i + 512] @ m) ** 2)) for i in range(0, n, 512))
    got = contraction_norm(_sep(factor), LatticeSpec(((n,),)), 2, 1)
    assert got == pytest.approx(want, rel=1e-12)
    # a 2-D factor past it is still refused before any matrix is built
    square = _sep(FactorCovariance(CAUCHY, exponent=0.8, dim=2))
    with pytest.raises(ModelError, match=(
            rf"contraction norms are capped at {DENSE_LIMIT} points per factor "
            r"\(4160 requested\)")):
        contraction_norm(square, LatticeSpec(((65, 64),)), 2, 1)


def test_toeplitz_limit_refuses_before_any_row(monkeypatch):
    def fail(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(chaoscalc, "_toeplitz_trace_abab", fail)
    cov = _sep(FactorCovariance(FGN, hurst=0.7))
    n = chaoscalc._TOEPLITZ_LIMIT + 1
    assert n == 32_769
    with pytest.raises(ModelError, match=(
            r"contraction norms are capped at 32768 points per factor \(32769 requested\)")):
        contraction_norm(cov, LatticeSpec(((n,),)), 2, 1)
    with pytest.raises(ModelError, match="capped at 32768 points"):
        chaos_report(cov, LatticeSpec(((n,),)), 2)


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
    (
        _sep(FactorCovariance(FGN, hurst=0.8), FactorCovariance(FGN, hurst=0.3)),
        LatticeSpec(((3,), (3,))),
    ),
    (_sep(FactorCovariance(CAUCHY, exponent=0.8, dim=2)), LatticeSpec(((3, 3),))),
    (
        CompositeCovariance(
            GNEITING,
            (FactorCovariance(CAUCHY, exponent=1.0), FactorCovariance(CAUCHY, exponent=0.7)),
        ),
        LatticeSpec(((3,), (2,))),
    ),
]


def test_variance_and_cumulant_match_pairing_oracle():
    # the diagram sum is exact at every order: 4-cycles and cliques alike
    for cov, lattice in ORACLE_MODELS:
        for q in range(1, 7):
            e2 = oracle_functional_moment(cov, lattice, q, order=2)
            assert variance_hermite(cov, lattice, q) == pytest.approx(
                e2, rel=1e-10
            )
            if q == 1:
                continue
            e4 = oracle_functional_moment(cov, lattice, q, order=4)
            want = (e4 - 3.0 * e2**2) / e2**2
            got, exact = fourth_cumulant(cov, lattice, q)
            assert exact, (cov.structure, lattice.all_sizes, q)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10), (lattice.all_sizes, q)


def test_fourth_cumulant_closed_cases():
    one = LatticeSpec(((1,),))
    unit = _sep(FactorCovariance(FGN, hurst=0.7))
    assert fourth_cumulant(unit, one, 1) == (0.0, True)
    k2, exact2 = fourth_cumulant(unit, one, 2)
    assert exact2 and k2 == pytest.approx(12.0)
    k3, exact3 = fourth_cumulant(unit, one, 3)
    assert exact3 and k3 == pytest.approx(90.0)


def test_fourth_cumulant_exact_q4():
    one = LatticeSpec(((1,),))
    unit = _sep(FactorCovariance(FGN, hurst=0.7))
    value, exact = fourth_cumulant(unit, one, 4)
    assert exact
    # the kappa_4 of H_4(N), by the pairing oracle (degree 16)
    e4 = wick_moment(WickProblem(np.eye(1), ((0, 4),) * 4))
    assert value == pytest.approx((e4 - 3.0 * 24.0**2) / 24.0**2, rel=1e-12)


def test_fourth_cumulant_checks_its_inputs_at_q1():
    two = _sep(FactorCovariance(FGN, hurst=0.7), FactorCovariance(FGN, hurst=0.3))
    for q in (1, 2):
        with pytest.raises(ModelError):
            fourth_cumulant(two, LatticeSpec(((5,),)), q)


def test_clique_sum_matches_brute_force():
    # S(a, b, c) against the 4-index sum of A_ij A_kl B_ik B_jl C_il C_jk
    m = lattice_covariance_matrix(*SMALL_MODELS[1])
    for triple in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (3, 2, 1), (2, 2, 2)):
        a, b, c = (m**k for k in triple)
        want = float(np.einsum("ij,kl,ik,jl,il,jk->", a, a, b, b, c, c))
        assert chaoscalc._clique_sum(m, triple) == pytest.approx(want, rel=1e-12), triple


# the halved kernels against full, unhalved references, on blocks of odd
# and even point counts: both rely on persymmetry, J M J = M for the point
# reversal J, which holds because C(z) = C(-z)
PERSYMMETRY_SIZES = (1, 2, 3, 4, 7, 8)
PERSYMMETRY_SHAPES = ((1, 1), (2, 1), (3, 1), (2, 2), (7, 1), (4, 2))
ABAB_ORDERS = [(q, r) for q in (2, 3, 4) for r in range(1, q)]
CLIQUE_ORDERS = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]  # q <= 4, every order


def _full_clique_sum(matrix, triple):
    """S(a, b, c) as sum_u trace(P Q R) over every point u."""
    a, b, c = (matrix**k for k in triple)
    return sum(float(np.trace((a[:, u, None] * c) @ (b[:, u, None] * a) @ (c[:, u, None] * b)))
               for u in range(len(matrix)))


def _skew_table_factor():
    """A 2-D tabulated factor even under z -> -z but not under z1 -> -z1:
    C(1, 1) = 0.36, C(1, -1) = 0.18."""
    table = {(z1, z2): 0.6 ** (abs(z1) + abs(z2)) * (1.0 if z2 >= 0 else 0.5)
             for z1 in range(0, 7) for z2 in range(-3, 4) if (z1, z2) >= (0, 0)}
    return FactorCovariance(TABULATED, dim=2, table=table)


def _persymmetric_blocks():
    """(label, dense matrix) for every kind of block _block_terms receives."""
    for hurst in (0.3, 0.7):
        factor = FactorCovariance(FGN, hurst=hurst)
        for n in PERSYMMETRY_SIZES:
            yield f"fgn({hurst}) n={n}", toeplitz(chaoscalc._factor_block(factor, (n,)))
    cauchy = FactorCovariance(CAUCHY, exponent=0.8, dim=2)
    yield "cauchy 3x2", chaoscalc._factor_block(cauchy, (3, 2))
    skew = _skew_table_factor()
    models = [
        CompositeCovariance(GNEITING, (FactorCovariance(CAUCHY, exponent=1.0),
                                       FactorCovariance(CAUCHY, exponent=0.7))),
        CompositeCovariance(ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.5),
                                       FactorCovariance(FGN, hurst=0.7)), weights=(0.4, 0.6)),
        CompositeCovariance(ISOTROPIC, (FactorCovariance(CAUCHY, exponent=0.8, dim=2),),
                            block_dims=(1, 1)),
    ]
    for shape in PERSYMMETRY_SHAPES:
        yield f"tabulated {shape}", chaoscalc._factor_block(skew, shape)
        for cov in models:
            lattice = LatticeSpec(tuple((n,) for n in shape))
            yield f"{cov.structure} {shape}", dense_covariance_matrix(cov, lattice)


def test_blocks_are_persymmetric():
    # the premise of both halvings: reversing the point order fixes M
    skew = chaoscalc._factor_block(_skew_table_factor(), (3, 2))
    assert skew[0, 3] != skew[1, 2]  # lags (1, 1) and (1, -1): not even per coordinate
    for label, m in _persymmetric_blocks():
        np.testing.assert_array_equal(m[::-1, ::-1], m, err_msg=label)


def test_halved_toeplitz_trace_matches_dense_products():
    for hurst in (0.3, 0.7):
        factor = FactorCovariance(FGN, hurst=hurst)
        for n in PERSYMMETRY_SIZES:
            col = chaoscalc._factor_block(factor, (n,))
            m = toeplitz(col)
            for q, r in ABAB_ORDERS:
                a, b = m**r, m ** (q - r)
                want = float(np.einsum("ij,jk,kl,li->", a, b, a, b, optimize=True))
                got = chaoscalc._toeplitz_trace_abab(col, q, r)
                assert got == pytest.approx(want, rel=1e-13), (hurst, n, q, r)


def test_halved_clique_sum_matches_the_full_point_loop():
    for label, m in _persymmetric_blocks():
        for triple in CLIQUE_ORDERS:
            want = _full_clique_sum(m, triple)
            assert chaoscalc._clique_sum(m, triple) == pytest.approx(want, rel=1e-13), (
                label, triple)


def test_clique_budget_scales_with_the_diagram_count(monkeypatch):
    # a dense block takes t(q) n^4 <= CLIQUE_LIMIT^4 and a 1-D factor t(q)
    # n^3 <= _LAG_CLIQUE_LIMIT^3, with t = 1, 1, 2, 3 at q = 3..6: at limits
    # of 16, 16 points fit at q = 3 and 4 in both, 13 and 12 at q = 5 and 6
    # in a dense block (a 2-D factor on an n x 1 window), 12 and 11 in 1-D
    dense = (FactorCovariance(CAUCHY, exponent=0.8, dim=2), lambda n: LatticeSpec(((n, 1),)),
             "CLIQUE_LIMIT", ((3, 16), (4, 16), (5, 13), (6, 12)))
    lags = (FactorCovariance(FGN, hurst=0.8), lambda n: LatticeSpec(((n,),)),
            "_LAG_CLIQUE_LIMIT", ((3, 16), (4, 16), (5, 12), (6, 11)))
    for factor, window, limit, edges in (dense, lags):
        monkeypatch.setattr(chaoscalc, limit, 16)
        for q, largest in edges:
            exact = fourth_cumulant(_sep(factor), window(largest), q)
            bound = fourth_cumulant(_sep(factor), window(largest + 1), q)
            assert exact[1] and not bound[1], (limit, q)
            # past the budget the majorant bounds the exact value from above
            monkeypatch.setattr(chaoscalc, limit, 256)
            true = fourth_cumulant(_sep(factor), window(largest + 1), q)
            monkeypatch.setattr(chaoscalc, limit, 16)
            assert true[1] and 0.0 < true[0] <= bound[0], (limit, q)


# 1-D factors for the lag-triple clique sum: long and short memory, a heavy
# tail, and a table with a negative value that is zero past lag 3
LAG_CLIQUE_FACTORS = (
    FactorCovariance(FGN, hurst=0.7),
    FactorCovariance(FGN, hurst=0.3),
    FactorCovariance(CAUCHY, exponent=0.4),
    FactorCovariance(TABULATED, table={(k,): ([1.0, -0.4, 0.2, -0.05] + [0.0] * 508)[k]
                                       for k in range(512)}),
)
# block sizes for the lag-triple kernel: the transform lengths 1, 4, 8, 24,
# 108, 192, 216, 384, 768, 768 and 864 (3^3 2^5), one block and several
LAG_CLIQUE_SIZES = (1, 2, 3, 7, 33, 64, 65, 128, 255, 256, 257)


def test_lag_clique_sum_matches_the_dense_clique_sum():
    for factor in LAG_CLIQUE_FACTORS:
        for n in (1, 2, 3, 7, 33, 64, 128):
            col = chaoscalc._factor_block(factor, (n,))
            matrix = toeplitz(col)
            for q in range(3, 7):
                for triple in chaoscalc._clique_triples(q):
                    want = chaoscalc._clique_sum(matrix, triple)
                    got = chaoscalc._lag_clique_sum(col, triple)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (
                        factor, n, triple)


def test_quarter_toeplitz_trace_matches_the_dense_einsum():
    # the 4-cycle kernel sums a quarter of P = AB; odd and even n, a centre
    # row and none, and a column with negative values
    for factor in (LAG_CLIQUE_FACTORS[1], LAG_CLIQUE_FACTORS[0], LAG_CLIQUE_FACTORS[3]):
        for n in (*range(1, 10), 63, 64, 65):
            col = chaoscalc._factor_block(factor, (n,))
            m = toeplitz(col)
            for q in range(2, 6):
                for r in range(1, q):
                    a, b = m**r, m ** (q - r)
                    want = float(np.einsum("ij,jk,kl,li->", a, b, a, b, optimize=True))
                    got = chaoscalc._toeplitz_trace_abab(col, q, r)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (factor, n, q, r)


def test_toeplitz_trace_sweeps_once_when_a_is_b(monkeypatch):
    # at q = 2r, P = A^2 = Q: one recurrence sweep from one Toeplitz product
    calls = []
    for name in ("_displacement_rows", "_toeplitz_matvec"):
        original = getattr(chaoscalc, name)
        monkeypatch.setattr(chaoscalc, name, lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    col = chaoscalc._factor_block(FactorCovariance(FGN, hurst=0.7), (9,))
    for q, r, sweeps in ((2, 1, 1), (4, 2, 1), (3, 1, 2), (5, 3, 2)):
        calls.clear()
        chaoscalc._toeplitz_trace_abab(col, q, r)
        assert sorted(calls) == ["_displacement_rows"] * sweeps + ["_toeplitz_matvec"] * sweeps, (
            q, r)


def _two_sided_lag_clique_sum(col, triple):
    """_lag_clique_sum with both sides d3 >= d2 and d3 <= d2 summed for every
    triple, the u and v rows stacked, every d1 row in one block."""
    n, width = len(col), 2 * len(col) - 1
    padding = np.zeros(n - 1)
    al, be, ga = (np.concatenate((padding, col[:0:-1], col, padding)) ** k for k in triple)
    g = al[width - 1:width - 1 + n].copy()
    g[0] /= 2
    length = chaoscalc._transform_length(3 * n - 2)
    spectrum = np.fft.rfft(g, length)
    lags, d1 = np.arange(1 - n, n), np.arange(n)
    shifted = lags - d1[:, None] + width - 1
    x = np.stack((be[n - 1:3 * n - 2] * ga[shifted], ga[n - 1:3 * n - 2] * be[shifted]))
    f = np.fft.rfft(x, length)
    c = np.fft.irfft(np.stack((f * spectrum, f * spectrum.conj())), length)
    conv, corr = c[0, ..., :width], c[1, ..., :n - 1]
    conv *= np.minimum(n - lags.astype(float), (n - d1)[:, None])
    corr *= lags[:n - 1].astype(float)
    conv[..., :n - 1] += corr
    sides = np.einsum("sij,sij->si", conv, x[::-1]).sum(axis=0)
    return float(np.einsum("i,i", 2 * g, sides))


def test_one_sided_lag_clique_sum_is_the_two_sided_sum_bit_for_bit():
    # b = c sums one side twice; (2, 2, 1), (3, 2, 1) and the like keep both;
    # and the blocks of d1 rows move no bit
    seen = set()
    for factor in LAG_CLIQUE_FACTORS:
        for n in LAG_CLIQUE_SIZES:
            col = chaoscalc._factor_block(factor, (n,))
            for q in range(3, 7):
                for triple in chaoscalc._clique_triples(q):
                    seen.add(triple)
                    assert chaoscalc._lag_clique_sum(col, triple) == _two_sided_lag_clique_sum(
                        col, triple), (factor, n, triple)
    assert {(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1)} <= seen


def _matrix_product_lag_clique_sum(col, triple):
    """The lag-triple clique sum through matrix products: each side is (u H)
    (n - max(d1, .)) v plus ((min(0, .) u) H) v, with H the upper triangle of
    al's (2n-1)-square Toeplitz matrix, its diagonal halved, in blocks of 64
    d1 rows."""
    n, width = len(col), 2 * len(col) - 1
    padding = np.zeros(n - 1)
    al, be, ga = (np.concatenate((padding, p[:0:-1], p, padding))
                  for p in (col**k for k in triple))
    h = np.concatenate((np.zeros(width - 1), al[width - 1:width] / 2, al[width:]))
    h = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(h, width)[::-1])
    lags = np.arange(1 - n, n)
    weights = np.where(lags[n - 1:] > 0, 2.0, 1.0) * al[width - 1:width - 1 + n]
    total = 0.0
    for start in range(0, n, 64):
        d1 = np.arange(start, min(n, start + 64))
        shifted = lags - d1[:, None] + width - 1
        u, v = be[n - 1:3 * n - 2] * ga[shifted], ga[n - 1:3 * n - 2] * be[shifted]
        reach = n - np.maximum(d1[:, None], lags)
        x, y = np.concatenate((u, v)), np.concatenate((v, u))
        sides = np.einsum("ij,ij->i", (x @ h) * np.concatenate((reach, reach))
                          + (x[:, :n - 1] * lags[:n - 1]) @ h[:n - 1], y)
        total += float(weights[d1] @ (sides[:len(d1)] + sides[len(d1):]))
    return total


def test_lag_clique_sum_matches_the_matrix_product_formula():
    # the convolutions against the same sums as products with the Toeplitz
    # triangle, on transform lengths that are powers of two and not
    for factor in LAG_CLIQUE_FACTORS:
        for n in LAG_CLIQUE_SIZES:
            col = chaoscalc._factor_block(factor, (n,))
            for q in range(3, 7):
                for triple in chaoscalc._clique_triples(q):
                    want = _matrix_product_lag_clique_sum(col, triple)
                    got = chaoscalc._lag_clique_sum(col, triple)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (factor, n, triple)


def test_transform_length_is_the_next_product_of_twos_and_threes():
    smooth = sorted(2**a * 3**b for a in range(12) for b in range(8))
    assert [chaoscalc._transform_length(m) for m in range(1, 2000)] == [
        next(s for s in smooth if s >= m) for m in range(1, 2000)]


def test_fourth_cumulant_does_not_depend_on_the_blas_thread_count():
    # exact kappa_4 at q = 3 and 4 takes both factors' lag-triple cliques,
    # one side summed twice at (1, 1, 1) and both sides at (2, 1, 1); a
    # 12 000-point factor's 4-cycles take rows longer than the dot products
    # OpenBLAS keeps on one thread (about 10 000 elements), and past the
    # clique budget kappa_4 is their flagged majorant at q = 3
    code = "\n".join((
        "from latfield.chaoscalc import fourth_cumulant",
        "from latfield.covariance import SEPARABLE, CompositeCovariance, FactorCovariance",
        "from latfield.fieldsim import LatticeSpec",
        "cov = CompositeCovariance(SEPARABLE, (FactorCovariance('fgn', hurst=0.7),",
        "                                      FactorCovariance('fgn', hurst=0.3)))",
        "for q in (3, 4):",
        "    print(repr(fourth_cumulant(cov, LatticeSpec(((512,), (32,))), q)))",
        "long = CompositeCovariance(SEPARABLE, (FactorCovariance('fgn', hurst=0.7),))",
        "for q in (2, 3):",
        "    print(repr(fourth_cumulant(long, LatticeSpec(((12000,),)), q)))",
    ))
    src = str(Path(__file__).parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                   text=True, check=True).stdout)
    assert outs[0] == outs[1]
    assert [line.endswith(", True)") for line in outs[0].splitlines()] == [True, True, True, False]


def test_variances_build_each_factor_window_once(monkeypatch):
    # the factor windows serve both the factorized variances and the check
    sep = _sep(FactorCovariance(FGN, hurst=0.7), FactorCovariance(CAUCHY, exponent=0.5, dim=2))
    add = CompositeCovariance(
        ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.48), FactorCovariance(FGN, hurst=0.3)),
        weights=(0.1, 0.9))
    lattices = (LatticeSpec(((9,), (4, 3))), LatticeSpec(((9,), (40, 30))))  # checked, too large
    wants = {}
    for lat in lattices:
        parts = [chaoscalc._lag_window(f, sizes) for f, sizes in zip(sep.factors, lat.blocks)]
        for q in (2, 3):
            variances = [math.factorial(q) * float(np.sum(w * v**q)) for v, w in parts]
            wants[lat, q] = (math.prod(variances) / math.factorial(q), variances)
    calls = []
    original = chaoscalc._lag_window
    monkeypatch.setattr(chaoscalc, "_lag_window",
                        lambda model, sizes: calls.append(model) or original(model, sizes))
    for lat in lattices:
        for q in (2, 3):
            calls.clear()
            assert chaoscalc._variances(sep, lat, q) == wants[lat, q], (lat, q)
            assert calls == list(sep.factors), (lat, q)
    # an additive model builds each factor window once and, when checked,
    # its own window once
    calls.clear()
    chaoscalc._variances(add, LatticeSpec(((9,), (7,))), 3)
    assert calls == [*add.factors, add]


def test_each_block_kind_takes_its_own_clique_kernel(monkeypatch):
    # 1-D factors take lag triples; a 2-D factor and a full-lattice matrix
    # take _clique_sum
    seen = []
    for name in ("_clique_sum", "_lag_clique_sum"):
        original = getattr(chaoscalc, name)
        monkeypatch.setattr(chaoscalc, name, lambda block, triple, name=name, original=original:
                            seen.append((name, block.shape)) or original(block, triple))
    mixed = _sep(FactorCovariance(FGN, hurst=0.6), FactorCovariance(CAUCHY, exponent=0.8, dim=2))
    fourth_cumulant(mixed, LatticeSpec(((20,), (4, 3))), 3)
    assert seen == [("_lag_clique_sum", (20,)), ("_clique_sum", (12, 12))]
    seen.clear()
    gneiting = CompositeCovariance(
        GNEITING, (FactorCovariance(CAUCHY, exponent=1.0), FactorCovariance(CAUCHY, exponent=0.7)))
    fourth_cumulant(gneiting, LatticeSpec(((6,), (5,))), 3)
    assert seen == [("_clique_sum", (30, 30))]


def test_fourth_cumulant_nonnegative():
    for cov, lattice in SMALL_MODELS:
        for q in (2, 3, 4):
            value, _ = fourth_cumulant(cov, lattice, q)
            assert value >= 0.0


def test_fourth_cumulant_clique_cap(monkeypatch):
    cov = _sep(FactorCovariance(FGN, hurst=0.75))
    past = chaoscalc._LAG_CLIQUE_LIMIT + 1  # a 1-D factor just past its clique budget
    value, exact = fourth_cumulant(cov, LatticeSpec(((past,),)), 3)
    assert not exact
    assert value >= 0.0
    # the majorant bounds the exact value, computed with the budget raised
    monkeypatch.setattr(chaoscalc, "_LAG_CLIQUE_LIMIT", past)
    true, exact = fourth_cumulant(cov, LatticeSpec(((past,),)), 3)
    monkeypatch.undo()
    assert exact and 0.0 < true <= value
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


def _polynomial_phi(*coeffs):
    """The custom phi sum_q a_q H_q (q >= 1), expanded up to its degree."""
    return HermiteSpec(CUSTOM, func=lambda x: sum(a * hermite_eval(q, x)
                                                  for q, a in enumerate(coeffs, start=1)),
                       qmax=len(coeffs))


def test_variance_phi():
    cov = _sep(FactorCovariance(FGN, hurst=0.3), FactorCovariance(FGN, hurst=0.9))
    lat = LatticeSpec(((6,), (6,)))
    phi2 = HermiteSpec(PURE, q=2)
    result = variance_phi(cov, lat, phi2)
    assert result.value == pytest.approx(variance_hermite(cov, lat, 2), rel=1e-14)
    assert result.tail_bound == 0.0 and result.rank == 2
    assert type(result.tail_bound) is float

    # single point, indicator at zero: Var = 1/4 exactly, no truncation
    ind = HermiteSpec(INDICATOR, level=0.0)
    one = LatticeSpec(((1,),))
    unit = _sep(FactorCovariance(FGN, hurst=0.7))
    got = variance_phi(unit, one, ind)
    assert got.rank == 1
    assert got.tail_bound == 0.0
    assert abs(got.value - 0.25) <= 1e-12

    # phi = H_1 + H_3 (a_1 = a_3 = 1) on white noise: n * 1! + n * 3! = 7n,
    # and its chaos sum is complete
    wn = _sep(FactorCovariance(WHITE_NOISE))
    got = variance_phi(wn, LatticeSpec(((11,),)), _polynomial_phi(1.0, 0.0, 1.0))
    assert got.value == pytest.approx(77.0)
    assert got.rank == 1 and type(got.tail_bound) is float
    assert got.tail_bound <= 1e-9 * got.value

    # tanh has chaoses past qmax = 20: the bound is positive and caps the
    # distance to a longer chaos sum
    fgn = _sep(FactorCovariance(FGN, hurst=0.7))
    lat = LatticeSpec(((50,),))
    got = variance_phi(fgn, lat, HermiteSpec(CUSTOM, func=np.tanh))
    longer = variance_phi(fgn, lat, HermiteSpec(CUSTOM, func=np.tanh, qmax=29))
    assert 0.0 < longer.tail_bound < got.tail_bound
    assert type(got.tail_bound) is float
    assert abs(longer.value - got.value) <= got.tail_bound


def test_variance_phi_takes_the_exact_indicator_lag_sum():
    cov = _sep(FactorCovariance(FGN, hurst=0.7), FactorCovariance(CAUCHY, exponent=1.5))
    lat = LatticeSpec(((40,), (30,)))
    for level in (0.0, 0.8):
        ind = HermiteSpec(INDICATOR, level=level)
        got = variance_phi(cov, lat, ind)
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
    assert reduction_ratio(unit, one, HermiteSpec(PURE, q=3)) == pytest.approx(1.0)
    # phi = H_2 + H_4: (2! + 4!) / 2!
    assert reduction_ratio(unit, one, _polynomial_phi(0.0, 1.0, 0.0, 1.0)) == pytest.approx(13.0)


def test_reduction_ratio_trend():
    # rank 1, long-memory factor: the leading chaos takes over as n grows
    cov = _sep(FactorCovariance(CAUCHY, exponent=0.5))
    phi = _polynomial_phi(1.0, 0.0, 0.5)  # H_1 + H_3 / 2
    ratios = [
        reduction_ratio(cov, LatticeSpec(((n,),)), phi)
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


def test_an_oversized_window_is_refused_before_it_is_allocated():
    # a 100 000 x 100 000 block has about 4e10 lags, 298 GiB of values:
    # every window is capped in one place, before any array is built
    cauchy = FactorCovariance(CAUCHY, exponent=0.5, dim=2)
    big = (100_000, 100_000)
    additive = CompositeCovariance(ADDITIVE, (cauchy, FactorCovariance(FGN, hurst=0.7)),
                                   weights=(0.5, 0.5))
    calls = {
        "gamma_quotient": lambda: gamma_quotient(cauchy, big, 2),
        "variance_hermite": lambda: variance_hermite(_sep(cauchy), LatticeSpec((big,)), 2),
        "additive_variance": lambda: additive_variance(additive, LatticeSpec((big, (10,))), 2),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match="exceeds the cap"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, name


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
        (long_short, LatticeSpec(((40,), (12,))), 3, True),    # within the 1-D clique budget
        (long_short, LatticeSpec(((chaoscalc._LAG_CLIQUE_LIMIT + 1,), (12,))), 3, False),  # past it
        (_sep(FactorCovariance(FGN, hurst=0.6), FactorCovariance(CAUCHY, exponent=0.8, dim=2)),
         LatticeSpec(((20,), (4, 3))), 4, True),
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
    original = chaoscalc._toeplitz_trace_abab

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(chaoscalc, "_toeplitz_trace_abab", counted)
    # r and q - r share one norm, so only r <= q/2 is computed per factor
    for q, want in ((2, 2), (3, 2), (4, 4)):
        calls.clear()
        chaos_report(long_short, LatticeSpec(((64,), (16,))), q)
        assert len(calls) == want, q


def test_entry_points_are_the_report_fields_bit_for_bit(monkeypatch):
    # every entry point reads the record chaos_report reads: the same bits,
    # r > q/2 included, and where a factor past its clique budget makes
    # kappa_4 the flagged majorant
    monkeypatch.setattr(chaoscalc, "_LAG_CLIQUE_LIMIT", 16)
    cauchy2 = FactorCovariance(CAUCHY, exponent=0.8, dim=2)
    mixed = _sep(FactorCovariance(FGN, hurst=0.6), cauchy2)
    cases = [
        (_sep(FactorCovariance(FGN, hurst=0.7), FactorCovariance(FGN, hurst=0.3)),
         LatticeSpec(((12,), (9,)))),
        (mixed, LatticeSpec(((12,), (4, 3)))),
        (mixed, LatticeSpec(((20,), (4, 3)))),  # the 1-D factor past its budget at q >= 3
        (_sep(cauchy2), LatticeSpec(((7, 5),))),
        (CompositeCovariance(GNEITING, (FactorCovariance(CAUCHY, exponent=1.0),
                                        FactorCovariance(CAUCHY, exponent=0.7))),
         LatticeSpec(((6,), (5,)))),
        (CompositeCovariance(ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.5),
                                        FactorCovariance(FGN, hurst=0.7)), weights=(0.4, 0.6)),
         LatticeSpec(((6,), (5,)))),
        (CompositeCovariance(ISOTROPIC, (cauchy2,), block_dims=(1, 1)), LatticeSpec(((5,), (4,)))),
    ]
    majorants = []
    for cov, lat in cases:
        for q in range(1, 6):
            rep = chaos_report(cov, lat, q)
            assert variance_hermite(cov, lat, q) == rep.variance
            assert fourth_cumulant(cov, lat, q) == (rep.fourth_cumulant, rep.fourth_exact)
            norms = {r: contraction_norm(cov, lat, q, r) for r in range(1, q)}
            assert norms == rep.contraction_norms, (lat.all_sizes, q)
            if cov.structure == SEPARABLE and q >= 2:
                assert tv_bound(cov, lat, q) == rep.tv_bound
            else:
                assert rep.tv_bound is None
            if not rep.fourth_exact:
                majorants.append((lat.all_sizes, q))
    assert majorants == [((20, 4, 3), 3), ((20, 4, 3), 4), ((20, 4, 3), 5)]


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


def test_separable_lag_window_is_the_full_grid_evaluation():
    # per-factor windows, multiplied out, against composite_values on the
    # whole lag grid: the same bits for C and W
    exp2, fgn3 = FactorCovariance(EXPONENTIAL, scale=2.0), FactorCovariance(FGN, hurst=0.3)
    cauchy2 = FactorCovariance(CAUCHY, exponent=0.8, dim=2)
    cases = [
        (_sep(exp2, fgn3), (7, 5)),
        (_sep(cauchy2, fgn3), (3, 4, 5)),
        (_sep(fgn3, cauchy2), (5, 3, 4)),
        (_sep(fgn3, exp2, FactorCovariance(FGN, hurst=0.8)), (4, 3, 6)),
    ]
    for cov, sizes in cases:
        axes = [np.arange(-(n - 1), n) for n in sizes]
        lags = _grid_vectors(axes).reshape(-1, len(sizes))
        weights = np.ones(())
        for n, ax in zip(sizes, axes):
            weights = np.multiply.outer(weights, (n - np.abs(ax)).astype(float))
        values, got_weights = chaoscalc._lag_window(cov, sizes)
        np.testing.assert_array_equal(values, composite_values(cov, lags), err_msg=str(sizes))
        np.testing.assert_array_equal(got_weights, weights.ravel(), err_msg=str(sizes))


def test_level_zero_indicator_variance_is_sheppards_sum():
    # at level 0 the orthant excess is asin(rho) / 2 pi: the lag sum must
    # match its correctly rounded sum, with no Phibar(0)^2 cancelled
    cov = _sep(FactorCovariance(EXPONENTIAL, scale=2.0), FactorCovariance(FGN, hurst=0.3))
    lat = LatticeSpec(((256,), (256,)))
    values, weights = chaoscalc._lag_window(cov, lat.all_sizes)
    want = math.fsum((weights * np.arcsin(values) / (2.0 * np.pi)).tolist())
    got = variance_indicator(cov, lat, 0.0)
    assert abs(got - want) <= 1e-14 * want


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
