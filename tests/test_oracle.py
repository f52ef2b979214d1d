"""The pairing oracle, certified against hand-computable Gaussian moments."""
import collections
import itertools
import math

import numpy as np
import pytest

from latfield import oracle
from latfield._errors import ModelError
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
    eval_composite,
)
from latfield.fieldsim import LatticeSpec
from latfield.oracle import (
    WickProblem,
    lattice_covariance_matrix,
    oracle_functional_moment,
    wick_moment,
)

ONE = np.eye(1)
FGN_075_LAG1 = 0.41421356237309515  # sqrt(2) - 1


def _two_point(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def test_single_point_moments():
    # E[H_q(N)^2] = q!
    assert wick_moment(WickProblem(ONE, ((0, 2), (0, 2)))) == pytest.approx(2.0)
    assert wick_moment(WickProblem(ONE, ((0, 3), (0, 3)))) == pytest.approx(6.0)
    assert wick_moment(WickProblem(ONE, ((0, 4), (0, 4)))) == pytest.approx(24.0)
    # E[(N^2 - 1)^4] = 105 - 4*15 + 6*3 - 4 + 1 = 60
    assert wick_moment(WickProblem(ONE, ((0, 2),) * 4)) == pytest.approx(60.0)
    # E[(N^3 - 3N)^4] = 10395 - 12*945 + 54*105 - 108*15 + 81*3 = 3348
    assert wick_moment(WickProblem(ONE, ((0, 3),) * 4)) == pytest.approx(3348.0)
    # orthogonality of distinct orders at one point, even total degree
    assert wick_moment(WickProblem(ONE, ((0, 1), (0, 3)))) == 0.0
    assert wick_moment(WickProblem(ONE, ((0, 2), (0, 4)))) == 0.0
    # empty monomial
    assert wick_moment(WickProblem(ONE, ())) == 1.0


def test_odd_total_degree_vanishes():
    assert wick_moment(WickProblem(_two_point(0.5), ((0, 1), (1, 2)))) == 0.0
    assert wick_moment(WickProblem(ONE, ((0, 3),))) == 0.0


def test_two_point_power_law():
    # E[H_q(B_0) H_q(B_1)] = q! rho^q
    for rho in (0.5, -0.3, 0.9):
        cov = _two_point(rho)
        for q in (1, 2, 3, 4):
            expected = math.factorial(q) * rho**q
            assert wick_moment(
                WickProblem(cov, ((0, q), (1, q)))
            ) == pytest.approx(expected, abs=1e-13)
    assert wick_moment(
        WickProblem(_two_point(0.5), ((0, 2), (1, 2)))
    ) == pytest.approx(0.5)


def test_first_order_is_isserlis():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    raw = a @ a.T + 4.0 * np.eye(4)
    d = np.sqrt(np.diag(raw))
    corr = raw / np.outer(d, d)
    got = wick_moment(WickProblem(corr, ((0, 1), (1, 1), (2, 1), (3, 1))))
    expected = (
        corr[0, 1] * corr[2, 3]
        + corr[0, 2] * corr[1, 3]
        + corr[0, 3] * corr[1, 2]
    )
    assert got == pytest.approx(expected, abs=1e-13)


def test_wick_validation_and_caps():
    with pytest.raises(ModelError):
        wick_moment(WickProblem(ONE, ((0, 13), (0, 13))))  # degree 26 > cap
    with pytest.raises(ModelError):
        WickProblem(np.array([[1.0, 0.5], [0.4, 1.0]]), ((0, 1),))
    with pytest.raises(ModelError):
        WickProblem(np.array([[2.0]]), ((0, 1),))
    with pytest.raises(ModelError):
        WickProblem(ONE, ((3, 1),))


def _allclose_accepts(m):
    return bool(np.allclose(m, m.T, atol=1e-12) and np.allclose(np.diag(m), 1.0, atol=1e-12))


def _accepts(m):
    try:
        WickProblem(m, ((0, 1),))
    except ModelError:
        return False
    return True


def test_wick_validation_is_allclose_rule():
    # |x - y| <= 1e-12 + 1e-5 |y| on both sides of each boundary
    unit = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])

    def perturbed(base, *changes):
        m = base.copy()
        for i, j, delta in changes:
            m[i, j] += delta
        return m

    cases = [
        (perturbed(unit, (0, 2, 1e-13)), True),          # asymmetry 1e-13
        (perturbed(unit, (2, 0, -1e-13)), True),
        (perturbed(unit, (0, 1, 1e-4)), False),          # 1e-4 on a unit entry
        (perturbed(unit, (1, 0, -2e-5)), False),
        (perturbed(unit, (0, 1, 9e-6)), True),           # within rtol of a unit entry
        (perturbed(np.eye(3), (0, 2, 2e-12)), False),    # past atol where |y| = 0
        (perturbed(np.eye(3), (0, 2, 5e-13)), True),
        (perturbed(unit, (2, 2, 2e-5)), False),          # diagonal 1 + 2e-5
        (perturbed(unit, (2, 2, -2e-5)), False),         # diagonal 1 - 2e-5
        (perturbed(unit, (2, 2, 9e-6)), True),
        (perturbed(unit, (2, 2, -9e-6)), True),
        (perturbed(unit, (0, 2, np.nan)), False),        # a NaN entry
        (perturbed(unit, (0, 2, np.nan), (2, 0, np.nan)), False),
        (perturbed(unit, (1, 1, np.nan)), False),
    ]
    for m, accepted in cases:
        assert _allclose_accepts(m) == accepted, m
        assert _accepts(m) == accepted, m
    # np.allclose takes equal infinities as close; the oracle refuses them
    inf = np.array([[1.0, np.inf], [np.inf, 1.0]])
    assert _allclose_accepts(inf)
    with pytest.raises(ModelError, match="finite"):
        WickProblem(inf, ((0, 1),))


def test_lattice_covariance_matrix_values():
    table = FactorCovariance(TABULATED, table={(0,): 1.0, (1,): 0.5})
    cov = CompositeCovariance(SEPARABLE, (table,))
    got = lattice_covariance_matrix(cov, LatticeSpec(((2,),)))
    assert np.allclose(got, _two_point(0.5))

    wn2 = CompositeCovariance(
        SEPARABLE, (FactorCovariance(WHITE_NOISE), FactorCovariance(WHITE_NOISE))
    )
    assert np.allclose(
        lattice_covariance_matrix(wn2, LatticeSpec(((2,), (2,)))), np.eye(4)
    )


def _sep(*factors):
    return CompositeCovariance(SEPARABLE, factors)


@pytest.mark.parametrize("cov, blocks", [
    (_sep(FactorCovariance(WHITE_NOISE)), ((4,),)),
    (_sep(FactorCovariance(FGN, hurst=0.75)), ((4,),)),
    (_sep(FactorCovariance(CAUCHY, exponent=0.55)), ((9,),)),
    (_sep(FactorCovariance(CAUCHY, exponent=0.6)), ((9,),)),
    (_sep(FactorCovariance(CAUCHY, exponent=0.65)), ((9,),)),
    (_sep(FactorCovariance(TABULATED, table={(0,): 1.0, (1,): 0.5, (2,): 0.25, (3,): 0.1})),
     ((4,),)),
    (_sep(FactorCovariance(FGN, hurst=0.3), FactorCovariance(FGN, hurst=0.9)), ((4,), (2,))),
    (_sep(FactorCovariance(CAUCHY, dim=2, exponent=0.5)), ((3, 3),)),
    (CompositeCovariance(ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.48),
                                    FactorCovariance(FGN, hurst=0.7)), weights=(0.3, 0.7)),
     ((3,), (3,))),
    (CompositeCovariance(GNEITING, (FactorCovariance(CAUCHY, exponent=0.3),
                                    FactorCovariance(CAUCHY, exponent=1.0))), ((3,), (3,))),
], ids=["white", "fgn", "cauchy-0.55", "cauchy-0.6", "cauchy-0.65", "tabulated",
        "fgn-x-fgn", "cauchy-2d", "additive", "gneiting"])
def test_lattice_covariance_matrix_is_the_pointwise_covariance(cov, blocks):
    # one vectorized evaluation over every lag: symmetric, and each entry
    # within 4 ulp of the covariance evaluated at that lag alone (vectorized
    # powers may round differently in the last place)
    lattice = LatticeSpec(blocks)
    got = lattice_covariance_matrix(cov, lattice)
    points = oracle._lattice_points(lattice)
    want = np.array([[eval_composite(cov, p - r) for r in points] for p in points])
    assert np.array_equal(got, got.T)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_functional_moment_single_point():
    wn = CompositeCovariance(SEPARABLE, (FactorCovariance(WHITE_NOISE),))
    one = LatticeSpec(((1,),))
    assert oracle_functional_moment(wn, one, q=2, order=2) == pytest.approx(2.0)
    assert oracle_functional_moment(wn, one, q=2, order=4) == pytest.approx(60.0)
    assert oracle_functional_moment(wn, one, q=3, order=4) == pytest.approx(3348.0)


def test_functional_moment_two_points():
    table = FactorCovariance(TABULATED, table={(0,): 1.0, (1,): 0.5})
    cov = CompositeCovariance(SEPARABLE, (table,))
    two = LatticeSpec(((2,),))
    # E[(H_2(B_0) + H_2(B_1))^2] = 2 + 2*(2 * 0.5^2) + 2 = 5
    assert oracle_functional_moment(cov, two, q=2, order=2) == pytest.approx(5.0)
    # E[(B_0 + B_1)^2] = 2 + 2*0.5 = 3
    assert oracle_functional_moment(cov, two, q=1, order=2) == pytest.approx(3.0)


def test_functional_moment_separable_grid():
    # 2x2 grid, both axes fgn(0.75): E[Y_2^2] = 2 * (sum_z w(z) c(z)^2)^2
    # with per-axis sum 2 + 2 c(1)^2.
    fgn = FactorCovariance(FGN, hurst=0.75)
    cov = CompositeCovariance(SEPARABLE, (fgn, fgn))
    grid = LatticeSpec(((2,), (2,)))
    per_axis = 2.0 + 2.0 * FGN_075_LAG1**2
    assert oracle_functional_moment(cov, grid, q=2, order=2) == pytest.approx(
        2.0 * per_axis**2, rel=1e-12
    )


def test_functional_moment_caps():
    wn = CompositeCovariance(SEPARABLE, (FactorCovariance(WHITE_NOISE),))
    with pytest.raises(ModelError):
        oracle_functional_moment(wn, LatticeSpec(((10,),)), q=2, order=2)
    with pytest.raises(ModelError):  # degree 28 > 24
        oracle_functional_moment(wn, LatticeSpec(((1,),)), q=7, order=4)
    with pytest.raises(ModelError):
        oracle_functional_moment(wn, LatticeSpec(((1,),)), q=2, order=3)
    # at both caps, 9 points and degree 24: E[Y^2] = 9 * 12! for white noise
    assert oracle_functional_moment(wn, LatticeSpec(((9,),)), q=12, order=2) == pytest.approx(
        9.0 * math.factorial(12))


def test_functional_moment_matches_ordered_tuple_sum():
    # The oracle evaluates each multiset of points once; the plain sum over
    # every ordered point tuple is the reference.
    table = FactorCovariance(TABULATED, table={(0,): 1.0, (1,): 0.5, (2,): -0.2})
    cov = CompositeCovariance(SEPARABLE, (table,))
    lattice = LatticeSpec(((3,),))
    matrix = lattice_covariance_matrix(cov, lattice)
    for q in (1, 2):
        for order in (2, 4):
            want = sum(
                wick_moment(WickProblem(matrix, tuple((k, q) for k in points)))
                for points in itertools.product(range(3), repeat=order)
            )
            got = oracle_functional_moment(cov, lattice, q, order)
            assert got == pytest.approx(want, rel=1e-12)


def _enumerated_moment(corr, monomial):
    """E[prod H_q(B_k)] by enumerating every half-edge pairing: the first
    remaining half-edge pairs with each other one not at its own vertex."""
    vertex_point = [point for point, _ in monomial]
    halfedge_vertex = [v for v, (_, order) in enumerate(monomial) for _ in range(order)]
    if len(halfedge_vertex) % 2 == 1:
        return 0.0

    def match(remaining, acc):
        if not remaining:
            return acc
        first, rest = remaining[0], remaining[1:]
        v1 = halfedge_vertex[first]
        total = 0.0
        for i, other in enumerate(rest):
            v2 = halfedge_vertex[other]
            if v1 == v2:
                continue
            rho = corr[vertex_point[v1], vertex_point[v2]]
            if rho != 0.0:
                total += match(rest[:i] + rest[i + 1:], acc * rho)
        return total

    return match(tuple(range(len(halfedge_vertex))), 1.0)


def _random_correlation(rng, m):
    a = rng.standard_normal((m, m))
    raw = a @ a.T + 0.5 * np.eye(m)
    d = np.sqrt(np.diag(raw))
    return raw / np.outer(d, d)


def test_wick_recursion_matches_pairing_enumeration():
    rng = np.random.default_rng(11)
    monomials = [
        ((0, 2), (0, 2)),                        # repeated point
        ((0, 3), (1, 3), (0, 3), (1, 3)),        # q = 3 fourth moment
        ((0, 8), (1, 4), (2, 4)),                # total degree 16, the cap
        ((0, 2), (1, 3), (2, 2), (3, 1)),        # mixed orders
        ((0, 4), (0, 4), (1, 2), (2, 2)),
        ((3, 1), (1, 1), (1, 1), (2, 1)),
        ((0, 0), (1, 2), (2, 2)),                # order 0
        ((0, 1), (1, 2)),                        # odd total degree
        ((0, 3), (1, 4), (2, 4), (3, 4)),        # odd, 15
    ]
    for m in (1, 2, 3, 4):
        corr = _random_correlation(rng, m) if m > 1 else ONE
        for monomial in monomials:
            monomial = tuple((k % m, q) for k, q in monomial)
            got = wick_moment(WickProblem(corr, monomial))
            want = _enumerated_moment(corr, monomial)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (m, monomial)
    # sixteen half-edges on four distinct points, at the cap
    corr = _random_correlation(rng, 4)
    monomial = ((0, 4), (1, 4), (2, 4), (3, 4))
    assert wick_moment(WickProblem(corr, monomial)) == pytest.approx(
        _enumerated_moment(corr, monomial), rel=1e-12)


# criterion 03's models, with its lattices and orders
CRITERION_03_MODELS = (
    CompositeCovariance(SEPARABLE, (FactorCovariance(WHITE_NOISE),)),
    CompositeCovariance(SEPARABLE, (FactorCovariance(FGN, hurst=0.75),)),
    CompositeCovariance(SEPARABLE, (FactorCovariance(CAUCHY, exponent=0.6),)),
    CompositeCovariance(SEPARABLE, (FactorCovariance(
        TABULATED, table={(0,): 1.0, (1,): 0.5, (2,): 0.25, (3,): 0.1}),)),
    CompositeCovariance(SEPARABLE, (FactorCovariance(FGN, hurst=0.3),
                                    FactorCovariance(FGN, hurst=0.9))),
)


def test_batched_moment_equals_the_per_multiset_sum():
    # one recursion over every multiset gives, bit for bit, the weighted sum
    # of one wick_moment per multiset, added in multiset order
    shapes_1d = [(1,), (2,), (3,), (4,)]
    shapes_2d = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (4, 1), (1, 4)]
    for cov in CRITERION_03_MODELS:
        for sizes in shapes_1d if len(cov.factors) == 1 else shapes_2d:
            lattice = LatticeSpec(tuple((n,) for n in sizes))
            matrix = lattice_covariance_matrix(cov, lattice)
            for q in (1, 2, 3):
                for order in (2, 4):
                    want = 0.0
                    for points in itertools.combinations_with_replacement(
                            range(lattice.n_total), order):
                        tuples = math.factorial(order)
                        for repeats in collections.Counter(points).values():
                            tuples //= math.factorial(repeats)
                        monomial = tuple((k, q) for k in points)
                        want += tuples * wick_moment(WickProblem(matrix, monomial))
                    got = oracle_functional_moment(cov, lattice, q, order)
                    assert got == want, (cov.factors, sizes, q, order)
