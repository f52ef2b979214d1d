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

from latfield import chaoscalc, covariance
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
from latfield.covariance import _window_matrix
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
            rf"contraction norms are capped at {DENSE_LIMIT} points per block "
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
            r"contraction norms are capped at 32768 points per block \(32769 requested\)")):
        contraction_norm(cov, LatticeSpec(((n,),)), 2, 1)
    with pytest.raises(ModelError, match="capped at 32768 points"):
        chaos_report(cov, LatticeSpec(((n,),)), 2)


# models whose covariance on their lattice is the 1-D Cauchy(0.6) factor's
# on n points, each a block of one axis longer than one point
_CAUCHY_06 = FactorCovariance(CAUCHY, exponent=0.6)
_TOEPLITZ_SHAPES = {
    "isotropic-n": lambda n: (CompositeCovariance(ISOTROPIC, (_CAUCHY_06,), block_dims=(1,)),
                              LatticeSpec(((n,),))),
    "isotropic-1xn": lambda n: (
        CompositeCovariance(ISOTROPIC, (FactorCovariance(CAUCHY, exponent=0.6, dim=2),),
                            block_dims=(1, 1)), LatticeSpec(((1,), (n,)))),
    "separable-(1,n)": lambda n: (_sep(FactorCovariance(CAUCHY, exponent=0.6, dim=2)),
                                  LatticeSpec(((1, n),))),
    "separable-(n,1)": lambda n: (_sep(FactorCovariance(CAUCHY, exponent=0.6, dim=2)),
                                  LatticeSpec(((n, 1),))),
    "gneiting-nx1": lambda n: (
        CompositeCovariance(GNEITING, (_CAUCHY_06, FactorCovariance(CAUCHY, exponent=1.0))),
        LatticeSpec(((n,), (1,)))),
}


def _report_bits(report):
    return (report.variance, report.contraction_norms, report.fourth_cumulant,
            report.fourth_exact)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("shape", list(_TOEPLITZ_SHAPES))
def test_every_toeplitz_block_takes_the_factor_route(shape, q):
    # whatever the structure, a block of one axis longer than one point is
    # summed as the 1-D factor is, to the bit
    cov, lat = _TOEPLITZ_SHAPES[shape](300)
    want = chaos_report(_sep(_CAUCHY_06), LatticeSpec(((300,),)), q)
    assert _report_bits(chaos_report(cov, lat, q)) == _report_bits(want)


def test_a_toeplitz_block_is_exact_past_the_dense_limit():
    # 5000 points is past DENSE_LIMIT, not past _TOEPLITZ_LIMIT, for every shape
    n = 5000
    want = _report_bits(chaos_report(_sep(_CAUCHY_06), LatticeSpec(((n,),)), 2))
    assert want[3] is True
    for shape, model in _TOEPLITZ_SHAPES.items():
        assert _report_bits(chaos_report(*model(n), 2)) == want, shape


@pytest.mark.parametrize("q", [2, 3])
def test_an_additive_column_matches_its_dense_products(q):
    # the n x 1 additive lattice is one Toeplitz block: the Toeplitz route
    # against trace((AB)^2) of the dense matrix
    cov = CompositeCovariance(ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.3),
                                         FactorCovariance(CAUCHY, exponent=0.7)),
                              weights=(0.3, 0.7))
    lat = LatticeSpec(((300,), (1,)))
    matrix = dense_covariance_matrix(cov, lat)
    for r in range(1, q):
        want = chaoscalc._trace_abab(matrix, q, r)
        assert contraction_norm(cov, lat, q, r) == pytest.approx(want, rel=1e-12), r


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


def _clique_sum(matrix, triple):
    """The reference clique sum of a dense block M: S(a, b, c) = sum over
    point 4-tuples (i, j, k, l) of A_ij A_kl B_ik B_jl C_il C_jk with A, B,
    C = M^(.a), M^(.b), M^(.c), as sum_u T(u), T(u) = trace(P Q R) with P =
    diag(A_u.) C, Q = diag(B_u.) A, R = diag(C_u.) B.  M is persymmetric (J
    M J = M, as C is even), so relabelling every point i as N-1-i gives T(u)
    = T(N-1-u), and u runs over the first ceil(N/2) points only: twice
    those below the middle, plus the middle point when N is odd."""
    a, b, c = triple
    n = len(matrix)
    power = {k: matrix**k for k in triple}
    terms = [float(np.einsum("ij,ji->", (power[a][:, u, None] * power[c])
                             @ (power[b][:, u, None] * power[a]), power[c][:, u, None] * power[b]))
             for u in range((n + 1) // 2)]
    return 2 * sum(terms[:n // 2]) + sum(terms[n // 2:])


def _column(factor, n):
    """A 1-D factor's Toeplitz column, lags 0 .. n-1, from its lag window."""
    return chaoscalc._lag_window(factor, (n,))[0][n - 1:]


def _factor_matrix(factor, sizes):
    """A factor's covariance matrix over a window, gathered from its lag window."""
    return _window_matrix(chaoscalc._lag_window(factor, sizes)[0], sizes)


def test_clique_sum_matches_brute_force():
    # S(a, b, c) against the 4-index sum of A_ij A_kl B_ik B_jl C_il C_jk
    m = lattice_covariance_matrix(*SMALL_MODELS[1])
    for triple in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (3, 2, 1), (2, 2, 2)):
        a, b, c = (m**k for k in triple)
        want = float(np.einsum("ij,kl,ik,jl,il,jk->", a, a, b, b, c, c))
        assert _clique_sum(m, triple) == pytest.approx(want, rel=1e-12), triple


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
            yield f"fgn({hurst}) n={n}", toeplitz(_column(factor, n))
    cauchy = FactorCovariance(CAUCHY, exponent=0.8, dim=2)
    yield "cauchy 3x2", _factor_matrix(cauchy, (3, 2))
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
        yield f"tabulated {shape}", _factor_matrix(skew, shape)
        for cov in models:
            lattice = LatticeSpec(tuple((n,) for n in shape))
            yield f"{cov.structure} {shape}", dense_covariance_matrix(cov, lattice)


def test_blocks_are_persymmetric():
    # the premise of both halvings: reversing the point order fixes M
    skew = _factor_matrix(_skew_table_factor(), (3, 2))
    assert skew[0, 3] != skew[1, 2]  # lags (1, 1) and (1, -1): not even per coordinate
    for label, m in _persymmetric_blocks():
        np.testing.assert_array_equal(m[::-1, ::-1], m, err_msg=label)


def test_halved_toeplitz_trace_matches_dense_products():
    for hurst in (0.3, 0.7):
        factor = FactorCovariance(FGN, hurst=hurst)
        for n in PERSYMMETRY_SIZES:
            col = _column(factor, n)
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
            assert _clique_sum(m, triple) == pytest.approx(want, rel=1e-13), (label, triple)


def _largest_within_budget(sizes_of, q):
    """The largest n whose block sizes_of(n) fits the clique budget at q."""
    n = 1
    while chaoscalc._clique_cost(sizes_of(n + 1), q) <= chaoscalc._CLIQUE_BUDGET:
        n += 1
    return n


def test_clique_budget_scales_with_the_diagram_count(monkeypatch):
    # one budget on t(q) rows 3^D prod L_a, t = 1, 1, 2, 3 at q = 3..6: at
    # the budget of a 16-point 1-D block at q = 3, 16 points fit at q = 3
    # and 4, 11 and 9 at q = 5 and 6 (transform lengths 48, 32 and 27); the
    # edges of a 2-D factor on an n x 2 window and of a Gneiting lattice on
    # n x 3 follow from the same cost
    monkeypatch.setattr(chaoscalc, "_CLIQUE_BUDGET", chaoscalc._clique_cost((16,), 3))
    assert [_largest_within_budget(lambda n: (n,), q) for q in range(3, 7)] == [16, 16, 11, 9]
    gneiting = CompositeCovariance(GNEITING, (FactorCovariance(CAUCHY, exponent=1.0),
                                              FactorCovariance(CAUCHY, exponent=0.7)))
    kinds = [
        (_sep(FactorCovariance(FGN, hurst=0.8)), lambda n: (n,)),
        (_sep(FactorCovariance(CAUCHY, exponent=0.8, dim=2)), lambda n: (n, 2)),
        (gneiting, lambda n: (n, 3)),
    ]
    for cov, sizes_of in kinds:
        def lattice(n):
            shape = sizes_of(n)
            return LatticeSpec((shape,) if cov.structure == SEPARABLE else tuple((k,) for k in shape))

        for q in range(3, 7):
            largest = _largest_within_budget(sizes_of, q)
            exact = fourth_cumulant(cov, lattice(largest), q)
            bound = fourth_cumulant(cov, lattice(largest + 1), q)
            assert exact[1] and not bound[1], (sizes_of(largest), q)
            # past the budget the majorant bounds the exact value from above
            with monkeypatch.context() as raised:
                raised.setattr(chaoscalc, "_CLIQUE_BUDGET", chaoscalc._clique_cost(
                    sizes_of(largest + 1), q))
                true = fourth_cumulant(cov, lattice(largest + 1), q)
            assert true[1] and 0.0 < true[0] <= bound[0], (sizes_of(largest), q)


def _parent_budget_admits(sizes, q):
    """Whether the two clique budgets this kernel replaced took a block's
    cliques: t(q) n^3 <= 1024^3 for a 1-D factor's lag triples, t(q) N^4 <=
    256^4 for the dense point loop of any other block."""
    t = len(chaoscalc._clique_triples(q))
    if len(sizes) == 1:
        return t * sizes[0] ** 3 <= 1024**3
    return t * math.prod(sizes) ** 4 <= 256**4


def _shapes(dim, most):
    """Every window shape of ``dim`` axes with at most ``most`` points."""
    if dim == 0:
        yield ()
        return
    for n in range(1, most + 1):
        yield from ((n, *rest) for rest in _shapes(dim - 1, most // n))


def test_one_budget_admits_every_block_the_two_budgets_admitted():
    # every shape of at most 3 axes and DENSE_LIMIT points whose cliques
    # the two budgets took at q <= 6 stays exact, and the budget is the
    # smallest that does: a 5x5x7 block at q = 6 meets it
    admitted = []
    for q in range(3, 7):
        admitted += [((n,), q) for n in range(1, 1025) if _parent_budget_admits((n,), q)]
        for dim in (2, 3):
            admitted += [(sizes, q) for sizes in _shapes(dim, 256)
                         if _parent_budget_admits(sizes, q)]
    assert all(math.prod(sizes) <= DENSE_LIMIT for sizes, _ in admitted)
    costs = {(sizes, q): chaoscalc._clique_cost(sizes, q) for sizes, q in admitted}
    assert max(costs.values()) == chaoscalc._CLIQUE_BUDGET
    assert costs[(5, 5, 7), 6] == chaoscalc._CLIQUE_BUDGET
    # the reach at q = 3: 1024 -> 5335 points in 1-D, 256 points -> 35 x 35
    # in 2-D, which takes both non-separable frozen configs (24 x 24 and
    # 32 x 32) at q = 3 and 4
    assert _largest_within_budget(lambda n: (n,), 3) == 5335
    assert _largest_within_budget(lambda n: (n, n), 3) == 35
    assert _largest_within_budget(lambda n: (n, n), 4) == 35


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
            values = chaoscalc._lag_window(factor, (n,))[0]
            matrix = toeplitz(values[n - 1:])
            for q in range(3, 7):
                for triple in chaoscalc._clique_triples(q):
                    want = _clique_sum(matrix, triple)
                    got = chaoscalc._lag_clique_sum(values, (n,), triple)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (
                        factor, n, triple)


def _clique_blocks():
    """(id, model, window sizes) for every kind of block whose cliques
    the lag-triple sum takes: 1-D fGn of odd and even sizes, multi-D Cauchy
    factors (axes of one point among them), Gneiting, additive and
    isotropic full lattices, and the skew table, even only under z -> -z."""
    fgn = FactorCovariance(FGN, hurst=0.7)
    cauchy2 = FactorCovariance(CAUCHY, exponent=0.6, dim=2)
    cauchy3 = FactorCovariance(CAUCHY, exponent=0.6, dim=3)
    gneiting = CompositeCovariance(GNEITING, (FactorCovariance(CAUCHY, exponent=0.3),
                                              FactorCovariance(CAUCHY, exponent=1.0)))
    additive = CompositeCovariance(ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.48),
                                              FactorCovariance(CAUCHY, exponent=3.0)),
                                   weights=(0.1, 0.9))
    isotropic = CompositeCovariance(ISOTROPIC, (FactorCovariance(CAUCHY, exponent=0.5, dim=2),),
                                    block_dims=(1, 1))
    skew = _skew_table_factor()
    blocks = [
        *((fgn, (n,)) for n in (1, 2, 3, 4, 5, 8, 17)),
        *((cauchy2, shape) for shape in ((1, 1), (2, 1), (1, 3), (3, 4), (6, 5), (2, 7))),
        (gneiting, (5, 4)), (gneiting, (6, 7)), (gneiting, (1, 7)),
        (additive, (4, 6)),
        (isotropic, (5, 6)),
        *((cauchy3, shape) for shape in ((3, 2, 4), (2, 2, 2), (1, 3, 2))),
        *((skew, shape) for shape in ((3, 2), (4, 4), (7, 4), (1, 4), (5, 1))),
    ]
    names = [model.structure if isinstance(model, CompositeCovariance) else model.family
             for model, _ in blocks]
    return [(f"{name}-{'x'.join(map(str, sizes))}", model, sizes)
            for name, (model, sizes) in zip(names, blocks)]


CLIQUE_TRIPLES = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2))


@pytest.mark.parametrize("model, sizes", [pytest.param(model, sizes, id=label)
                                          for label, model, sizes in _clique_blocks()])
def test_lag_clique_sum_matches_the_dense_reference_on_every_block(model, sizes):
    # the lag-triple sum on the block's window against the dense point loop
    # on its pointwise matrix (oracle.lattice_covariance_matrix)
    if isinstance(model, FactorCovariance):
        cov, lattice = _sep(model), LatticeSpec((sizes,))
    else:
        cov, lattice = model, LatticeSpec(tuple((n,) for n in sizes))
    values = chaoscalc._lag_window(model, sizes)[0]
    matrix = lattice_covariance_matrix(cov, lattice)
    for triple in CLIQUE_TRIPLES:
        want = _clique_sum(matrix, triple)
        got = chaoscalc._lag_clique_sum(values, sizes, triple)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), triple


def test_quarter_toeplitz_trace_matches_the_dense_einsum():
    # the 4-cycle kernel sums a quarter of P = AB; odd and even n, a centre
    # row and none, and a column with negative values
    for factor in (LAG_CLIQUE_FACTORS[1], LAG_CLIQUE_FACTORS[0], LAG_CLIQUE_FACTORS[3]):
        for n in (*range(1, 10), 63, 64, 65):
            col = _column(factor, n)
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
    col = _column(FactorCovariance(FGN, hurst=0.7), 9)
    for q, r, sweeps in ((2, 1, 1), (4, 2, 1), (3, 1, 2), (5, 3, 2)):
        calls.clear()
        chaoscalc._toeplitz_trace_abab(col, q, r)
        assert sorted(calls) == ["_displacement_rows"] * sweeps + ["_toeplitz_matvec"] * sweeps, (
            q, r)


def test_lag_clique_sum_does_not_depend_on_its_batch_size(monkeypatch):
    # each lag row's sum is its own: one row per batch, the default batches
    # and every row in one batch give the same bits, in 1-D (one side when
    # b = c, both otherwise) and on 2-D and 3-D blocks
    blocks = [(factor, (n,)) for factor in LAG_CLIQUE_FACTORS for n in (1, 7, 64, 257)]
    blocks += [(FactorCovariance(CAUCHY, exponent=0.6, dim=2), (6, 5)),
               (FactorCovariance(CAUCHY, exponent=0.6, dim=3), (3, 2, 4))]
    for factor, sizes in blocks:
        values = chaoscalc._lag_window(factor, sizes)[0]
        for triple in ((1, 1, 1), (2, 1, 1), (3, 2, 1)):
            sums = []
            for points in (1, chaoscalc._LAG_CLIQUE_POINTS, 2**40):
                monkeypatch.setattr(chaoscalc, "_LAG_CLIQUE_POINTS", points)
                sums.append(chaoscalc._lag_clique_sum(values, sizes, triple))
            assert sums[0] == sums[1] == sums[2], (factor, sizes, triple)


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
    # the Parseval sums against the same sums as products with the Toeplitz
    # triangle, on transform lengths that are powers of two and not
    for factor in LAG_CLIQUE_FACTORS:
        for n in LAG_CLIQUE_SIZES:
            values = chaoscalc._lag_window(factor, (n,))[0]
            for q in range(3, 7):
                for triple in chaoscalc._clique_triples(q):
                    want = _matrix_product_lag_clique_sum(values[n - 1:], triple)
                    got = chaoscalc._lag_clique_sum(values, (n,), triple)
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
    # clique budget kappa_4 is their flagged majorant at q = 3; a 2-D factor
    # and a Gneiting lattice take the same lag-triple cliques in 2-D
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
        "plane = CompositeCovariance(SEPARABLE, (FactorCovariance('cauchy', exponent=0.8, dim=2),))",
        "print(repr(fourth_cumulant(plane, LatticeSpec(((14, 11),)), 3)))",
        "gneiting = CompositeCovariance('gneiting', (FactorCovariance('cauchy', exponent=1.0),",
        "                                            FactorCovariance('cauchy', exponent=0.7)))",
        "print(repr(fourth_cumulant(gneiting, LatticeSpec(((12,), (12,))), 3)))",
    ))
    src = str(Path(__file__).parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                   text=True, check=True).stdout)
    assert outs[0] == outs[1]
    assert [line.endswith(", True)") for line in outs[0].splitlines()] == [
        True, True, True, False, True, True]


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
            got = chaoscalc._variances(sep, lat, q, chaoscalc._walk(sep, lat))
            assert got == wants[lat, q], (lat, q)
            assert calls == list(sep.factors), (lat, q)
    # an additive model builds each factor window once and, when checked,
    # its own window once
    calls.clear()
    lat = LatticeSpec(((9,), (7,)))
    chaoscalc._variances(add, lat, 3, chaoscalc._walk(add, lat))
    assert calls == [*add.factors, add]


# fGn(0.7) x Cauchy(0.6), crit10-path-a's additive model and gneiting-growing's model
_WALKED = _sep(FactorCovariance(FGN, hurst=0.7), FactorCovariance(CAUCHY, exponent=0.6))
_CRIT10 = CompositeCovariance(
    ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.48), FactorCovariance(CAUCHY, exponent=3.0)),
    weights=(0.1, 0.9))
_GROWING = CompositeCovariance(
    GNEITING, (FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=1.0)))
_TANH = HermiteSpec(CUSTOM, func=np.tanh)  # 15 chaoses up to qmax = 20


def _capped_report():
    # a crit10 rung past DENSE_LIMIT points, refused before any window
    with pytest.raises(ModelError, match=(rf"^contraction norms are capped at {DENSE_LIMIT} "
                                          r"points per block \(16384 requested\)$")):
        chaos_report(_CRIT10, LatticeSpec(((256,), (64,))), 2)


@pytest.mark.parametrize("call, models", [
    pytest.param(lambda: chaos_report(_WALKED, LatticeSpec(((64,), (48,))), 2),
                 _WALKED.factors, id="chaos_report-separable"),
    pytest.param(lambda: fourth_cumulant(_WALKED, LatticeSpec(((64,), (48,))), 2),
                 _WALKED.factors, id="fourth_cumulant-separable"),
    pytest.param(lambda: tv_bound(_WALKED, LatticeSpec(((64,), (48,))), 2),
                 _WALKED.factors, id="tv_bound-separable"),
    pytest.param(lambda: contraction_norm(_WALKED, LatticeSpec(((64,), (48,))), 2, 1),
                 _WALKED.factors, id="contraction_norm-separable"),
    pytest.param(lambda: variance_hermite(_WALKED, LatticeSpec(((64,), (48,))), 2),
                 _WALKED.factors, id="variance_hermite-separable"),
    pytest.param(lambda: chaos_report(_CRIT10, LatticeSpec(((40,), (23,))), 2),
                 (*_CRIT10.factors, _CRIT10), id="chaos_report-additive"),
    pytest.param(lambda: variance_phi(_WALKED, LatticeSpec(((64,), (48,))), _TANH),
                 _WALKED.factors, id="variance_phi-separable"),
    pytest.param(lambda: variance_phi(_CRIT10, LatticeSpec(((40,), (23,))), _TANH),
                 (*_CRIT10.factors, _CRIT10), id="variance_phi-additive"),
    pytest.param(lambda: chaos_report(_GROWING, LatticeSpec(((24,), (24,))), 2),
                 (_GROWING,), id="chaos_report-gneiting"),
    pytest.param(_capped_report, (), id="chaos_report-capped"),
    pytest.param(lambda: reduction_ratio(_WALKED, LatticeSpec(((64,), (48,))), _TANH),
                 _WALKED.factors, id="reduction_ratio-separable"),
    # the indicator's orthant lag sum reads its walk's whole-lattice window,
    # multiplied out from the factor windows of the leading chaos
    pytest.param(lambda: reduction_ratio(_WALKED, LatticeSpec(((64,), (48,))),
                                         HermiteSpec(INDICATOR, level=0.0)),
                 _WALKED.factors, id="reduction_ratio-indicator"),
])
def test_each_call_builds_each_lag_window_once(monkeypatch, call, models):
    # one walk per public call: a separable or additive model's factor
    # windows, and the whole lattice's where a sum reads it, are built once
    # and serve every chaos order, the variance self-check, the 4-cycles
    # and the cliques
    calls = []
    original = chaoscalc._lag_window
    monkeypatch.setattr(chaoscalc, "_lag_window",
                        lambda model, sizes: calls.append(model) or original(model, sizes))
    call()
    assert sorted(calls, key=repr) == sorted(models, key=repr)


def test_every_block_takes_the_lag_clique_kernel_on_its_window(monkeypatch):
    # a 1-D factor, a 2-D factor and a full lattice all hand their lag
    # window to the one clique kernel
    seen = []
    original = chaoscalc._lag_clique_sum
    monkeypatch.setattr(chaoscalc, "_lag_clique_sum", lambda values, sizes, triple: seen.append(
        (values.size, sizes)) or original(values, sizes, triple))
    mixed = _sep(FactorCovariance(FGN, hurst=0.6), FactorCovariance(CAUCHY, exponent=0.8, dim=2))
    fourth_cumulant(mixed, LatticeSpec(((20,), (4, 3))), 3)
    assert seen == [(39, (20,)), (35, (4, 3))]
    seen.clear()
    gneiting = CompositeCovariance(
        GNEITING, (FactorCovariance(CAUCHY, exponent=1.0), FactorCovariance(CAUCHY, exponent=0.7)))
    fourth_cumulant(gneiting, LatticeSpec(((6,), (5,))), 3)
    assert seen == [(99, (6, 5))]


def test_fourth_cumulant_nonnegative():
    for cov, lattice in SMALL_MODELS:
        for q in (2, 3, 4):
            value, _ = fourth_cumulant(cov, lattice, q)
            assert value >= 0.0


def test_fourth_cumulant_clique_cap(monkeypatch):
    # the budget lowered to a 256-point 1-D block's: 257 points are past it
    cov = _sep(FactorCovariance(FGN, hurst=0.75))
    monkeypatch.setattr(chaoscalc, "_CLIQUE_BUDGET", chaoscalc._clique_cost((256,), 3))
    past = _largest_within_budget(lambda n: (n,), 3) + 1
    assert past == 257
    value, exact = fourth_cumulant(cov, LatticeSpec(((past,),)), 3)
    assert not exact
    assert value >= 0.0
    # the majorant bounds the exact value, computed with the budget restored
    monkeypatch.undo()
    true, exact = fourth_cumulant(cov, LatticeSpec(((past,),)), 3)
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


def test_a_walked_window_past_the_lag_cap_is_refused(monkeypatch):
    # a separable model's whole-lattice window is multiplied out of its
    # factor windows, which each fit under the cap: the product is capped
    # all the same, before it is allocated
    monkeypatch.setattr(covariance, "_DIRECT_LAG_LIMIT", 2000)
    lat = LatticeSpec(((24,), (24,)))  # 47 lags a factor, 2209 in all
    for call in (lambda: variance_indicator(_WALKED, lat, 0.0),
                 lambda: reduction_ratio(_WALKED, lat, HermiteSpec(INDICATOR, level=0.0))):
        with pytest.raises(ModelError, match="^a lag window of 2209 lags exceeds the cap of 2000;"):
            call()


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
        (long_short, LatticeSpec(((_largest_within_budget(lambda n: (n,), 3) + 1,), (12,))), 3,
         False),  # past it
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
    # r > q/2 included, and where a block past the clique budget makes
    # kappa_4 the flagged majorant: with the budget lowered to the Gneiting
    # 6 x 5 lattice's at q = 5, only the 7 x 5 factor is past it, at q = 5
    monkeypatch.setattr(chaoscalc, "_CLIQUE_BUDGET", chaoscalc._clique_cost((6, 5), 5))
    cauchy2 = FactorCovariance(CAUCHY, exponent=0.8, dim=2)
    mixed = _sep(FactorCovariance(FGN, hurst=0.6), cauchy2)
    cases = [
        (_sep(FactorCovariance(FGN, hurst=0.7), FactorCovariance(FGN, hurst=0.3)),
         LatticeSpec(((12,), (9,)))),
        (mixed, LatticeSpec(((12,), (4, 3)))),
        (mixed, LatticeSpec(((20,), (4, 3)))),
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
    assert majorants == [((7, 5), 5)]


def test_non_separable_report_builds_one_dense_matrix(monkeypatch):
    # contraction norms come from one full-lattice matrix, gathered from
    # the lattice's window, and the clique sums from that same window
    calls, windows = [], []
    matrix, cliques = chaoscalc._window_matrix, chaoscalc._lag_clique_sum

    def counted(values, sizes):
        calls.append(values)
        return matrix(values, sizes)

    monkeypatch.setattr(chaoscalc, "_window_matrix", counted)
    monkeypatch.setattr(chaoscalc, "_lag_clique_sum", lambda values, sizes, triple: windows.append(
        values) or cliques(values, sizes, triple))
    gneiting = CompositeCovariance(
        GNEITING, (FactorCovariance(CAUCHY, exponent=1.0), FactorCovariance(CAUCHY, exponent=0.7)))
    additive = CompositeCovariance(
        ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.5), FactorCovariance(FGN, hurst=0.7)),
        weights=(0.4, 0.6))
    for cov in (gneiting, additive):
        for q in (3, 4, 6):
            calls.clear()
            windows.clear()
            chaos_report(cov, LatticeSpec(((6,), (5,))), q)
            assert len(calls) == 1, (cov.structure, q)
            assert len(windows) == len(chaoscalc._clique_triples(q)), (cov.structure, q)
            assert all(values is calls[0] for values in windows), (cov.structure, q)


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
    # the walk's whole-lattice window, its factors' windows multiplied out,
    # against composite_values on the whole lag grid: the same bits for C
    # and W
    exp2, fgn3 = FactorCovariance(EXPONENTIAL, scale=2.0), FactorCovariance(FGN, hurst=0.3)
    cauchy2 = FactorCovariance(CAUCHY, exponent=0.8, dim=2)
    cases = [
        (_sep(exp2, fgn3), ((7,), (5,))),
        (_sep(cauchy2, fgn3), ((3, 4), (5,))),
        (_sep(fgn3, cauchy2), ((5,), (3, 4))),
        (_sep(fgn3, exp2, FactorCovariance(FGN, hurst=0.8)), ((4,), (3,), (6,))),
    ]
    for cov, blocks in cases:
        lat = LatticeSpec(blocks)
        sizes = lat.all_sizes
        axes = [np.arange(-(n - 1), n) for n in sizes]
        lags = _grid_vectors(axes).reshape(-1, len(sizes))
        weights = np.ones(())
        for n, ax in zip(sizes, axes):
            weights = np.multiply.outer(weights, (n - np.abs(ax)).astype(float))
        values, got_weights = chaoscalc._walk(cov, lat)()
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
