"""Brute-force Gaussian moment oracle.

Computes exact expectations of products of Hermite polynomials of jointly
Gaussian variables by summing over pairings (Isserlis/Wick).  Each Hermite
factor H_q contributes q half-edges at its vertex; a pairing contributes
the product of covariances over its edges, and pairings with an edge
inside a single Hermite factor contribute nothing (the diagram rule).

The half-edges at one vertex are interchangeable, so the pairings are
summed by the Isserlis recursion on the vector d of half-edges left at
each vertex: the first half-edge of the first vertex v1 with any left
pairs with one of the d[v2] half-edges of a later vertex v2, giving

    f(d) = sum_{v2 > v1, d[v2] > 0} d[v2] rho(v1, v2) f(d - e_v1 - e_v2),

memoized on d.  A single monomial runs it on Python floats; the functional
moments run it once for every multiset of points at a time, on vectors
(_isserlis).  Intentionally small and obviously correct: this module
certifies the fast chaos-calculus code on tiny lattices.  A covariance
matrix with a NaN or infinite entry is refused, and symmetry and the unit
diagonal are checked by np.allclose's rule, |x - y| <= 1e-12 + 1e-5 |y|,
written as direct comparisons.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from ._errors import COUNT, ModelError, checked_arg, checked_number, refuse
from .covariance import CompositeCovariance, composite_values
from .hermite import CHAOS_ORDER, HERMITE_ORDER

MAX_TOTAL_DEGREE = 24
MAX_ORACLE_POINTS = 9
#: the symmetry and unit-diagonal tolerances: np.allclose's rtol, atol 1e-12
_ATOL, _RTOL = 1e-12, 1e-5


def _check_covariance(matrix) -> np.ndarray:
    """The matrix as a float array, or ModelError unless it is square,
    finite, symmetric and of unit diagonal."""
    cov = np.asarray(matrix, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ModelError("covariance must be a square matrix")
    if not np.all(np.isfinite(cov)):
        raise ModelError("covariance entries must be finite")
    if not np.all(np.abs(cov - cov.T) <= _ATOL + _RTOL * np.abs(cov.T)):
        raise ModelError("covariance must be symmetric")
    if not np.all(np.abs(np.diag(cov) - 1.0) <= _ATOL + _RTOL):
        raise ModelError("covariance must have unit diagonal")
    return cov


def _check_degree(degree: int):
    if degree > MAX_TOTAL_DEGREE:
        raise ModelError(f"total degree {degree} exceeds the oracle cap {MAX_TOTAL_DEGREE}")


@dataclass(frozen=True)
class WickProblem:
    """Covariance matrix plus a Hermite monomial prod_j H_{q_j}(B_{k_j})."""

    covariance: np.ndarray            # m x m, symmetric, unit diagonal
    monomial: tuple                   # ((point index, hermite order), ...)

    def __post_init__(self):
        cov = _check_covariance(self.covariance)
        object.__setattr__(self, "covariance", cov)
        violations = []
        mono = tuple((checked_number(violations, f"monomial[{i}].point", k, **COUNT,
                                     maximum=cov.shape[0] - 1),
                      checked_number(violations, f"monomial[{i}].q", q, **HERMITE_ORDER))
                     for i, (k, q) in enumerate(self.monomial))
        refuse(violations)
        object.__setattr__(self, "monomial", mono)

    @property
    def total_degree(self) -> int:
        return sum(q for _, q in self.monomial)


def _isserlis(orders, rho):
    """f(orders) by the memoized Isserlis recursion, for vertices with the
    given numbers of half-edges.  rho[v1][v2] (v1 < v2) is the covariance of
    the two vertices' points, a float or an array over a batch of point
    assignments, or None where it is zero (for every assignment).  A term
    whose rho entry is zero adds 0 * f, a signed zero that leaves every
    nonzero sum unchanged, so each entry of a batch has the bits of its own
    recursion, which skips the term."""

    @functools.cache
    def pairings(left):
        v1 = next((v for v, d in enumerate(left) if d), None)
        if v1 is None:
            return 1.0
        total = 0.0
        for v2 in range(v1 + 1, len(left)):
            if left[v2] and rho[v1][v2] is not None:
                rest = list(left)
                rest[v1] -= 1
                rest[v2] -= 1
                total += left[v2] * rho[v1][v2] * pairings(tuple(rest))
        return total

    return pairings(tuple(orders))


def wick_moment(problem: WickProblem) -> float:
    """Exact E[prod_j H_{q_j}(B_{k_j})] by the memoized Isserlis recursion."""
    _check_degree(problem.total_degree)
    if problem.total_degree % 2 == 1:
        return 0.0
    points = [point for point, _ in problem.monomial]
    rho = [[value if value != 0.0 else None for value in row]
           for row in problem.covariance[np.ix_(points, points)].tolist()]
    return _isserlis([order for _, order in problem.monomial], rho)


def _lattice_points(lattice) -> np.ndarray:
    """All lattice points as integer coordinate rows, axis-major order."""
    axes = [np.arange(n) for n in lattice.all_sizes]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def lattice_covariance_matrix(cov: CompositeCovariance, lattice) -> np.ndarray:
    """Dense covariance matrix over all lattice points (small lattices),
    from one evaluation of the covariance at every lag pts[i] - pts[j]."""
    pts = _lattice_points(lattice)
    return composite_values(cov, pts[:, None, :] - pts[None, :, :])


def oracle_functional_moment(cov, lattice, q: int, order: int) -> float:
    """Exact E[Y[q]^order] on a tiny lattice, order in {2, 4}.

    Y[q] = sum over lattice points of H_q(B), expanded into a sum over
    point tuples.  The expectation of a tuple does not depend on the order
    of its factors, so each multiset of points is evaluated once and
    weighted by the number of tuples that share it.  Every multiset puts
    ``order`` vertices of degree q on its points, so one Isserlis recursion
    serves them all, each rho entry a vector over the multisets; the
    weighted terms are added one multiset at a time, in order.
    """
    q, order = checked_arg("q", q, CHAOS_ORDER), checked_arg("order", order, COUNT)
    if order not in (2, 4):
        raise ModelError("moment order must be 2 or 4")
    n = lattice.n_total
    if n > MAX_ORACLE_POINTS:
        raise ModelError(f"oracle lattices are capped at {MAX_ORACLE_POINTS} points")
    _check_degree(q * order)
    matrix = _check_covariance(lattice_covariance_matrix(cov, lattice))
    multisets = list(combinations_with_replacement(range(n), order))
    points = np.array(multisets).T  # points[v]: vertex v's point, per multiset
    rho = [[None] * order for _ in range(order)]
    for v1, v2 in combinations(range(order), 2):
        entry = matrix[points[v1], points[v2]]
        rho[v1][v2] = entry if np.any(entry) else None
    moments = np.broadcast_to(_isserlis([q] * order, rho), len(multisets))
    total = 0.0
    for multiset, moment in zip(multisets, moments.tolist()):
        tuples = math.factorial(order)
        for repeats in Counter(multiset).values():
            tuples //= math.factorial(repeats)
        total += tuples * moment
    return total
