"""Reference computations the benchmark checks latfield against.

Everything here is written from the closed forms, without importing
latfield, so that a fault in the package cannot hide in its own check.
All factors are one-dimensional; a lattice is a tuple of axis sizes.

Run ``python3 perfbench/refs.py`` to run the self-tests alone.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

# ---------------------------------------------------------------------------
# covariance families, value 1 at lag 0


def fgn(hurst):
    h2 = 2.0 * hurst

    def c(k):
        k = np.abs(np.asarray(k, dtype=float))
        return 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)

    return c


def cauchy(exponent):
    return lambda k: (1.0 + np.asarray(k, dtype=float) ** 2) ** (-exponent / 2.0)


def exponential(scale):
    return lambda k: np.exp(-np.abs(np.asarray(k, dtype=float)) / scale)


def white_noise():
    return lambda k: (np.asarray(k) == 0).astype(float)


def table(values):
    """Covariance given at lags 0..len(values)-1 (only used inside that range)."""
    values = np.asarray(values, dtype=float)
    return lambda k: values[np.abs(np.asarray(k, dtype=int))]


# ---------------------------------------------------------------------------
# lag sums: sum over point pairs of g(C(s - t)) = sum_z W(z) g(C(z))


def _axis_lags(n):
    z = np.arange(-(n - 1), n)
    return z, (n - np.abs(z)).astype(float)


def separable_lag_grid(factors, sizes):
    """(C, W) on the full lag grid of a separable product covariance."""
    cov, weight = np.ones(1), np.ones(1)
    for c, n in zip(factors, sizes):
        z, w = _axis_lags(n)
        cov = np.multiply.outer(cov, c(z))
        weight = np.multiply.outer(weight, w)
    return cov[0], weight[0]


def additive_lag_grid(c1, c2, w1, w2, n1, n2):
    """(C, W) for w1 c1(z1) + w2 c2(z2) on an n1 x n2 window."""
    z1, v1 = _axis_lags(n1)
    z2, v2 = _axis_lags(n2)
    cov = w1 * c1(z1)[:, None] + w2 * c2(z2)[None, :]
    return cov, np.multiply.outer(v1, v2)


def hermite_variance(grid, q):
    """Var(sum H_q(B_t)) = q! sum_z W(z) C(z)^q."""
    cov, weight = grid
    return math.factorial(q) * float(np.sum(weight * cov**q))


def indicator_variance_level0(grid):
    """Var(sum 1{B_t >= 0}): P(X >= 0, Y >= 0) - 1/4 = arcsin(rho) / (2 pi)."""
    cov, weight = grid
    return float(np.sum(weight * np.arcsin(np.clip(cov, -1.0, 1.0)))) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# dense matrix references for the chaos diagnostics


def dense_matrix(c, n):
    idx = np.arange(n)
    return c(idx[:, None] - idx[None, :])


def contraction(matrix, q, r):
    """||f (x)_r f||^2 = trace((A B)^2) with A = M^(.r), B = M^(.(q-r))."""
    ab = (matrix**r) @ (matrix ** (q - r))
    return float(np.sum(ab * ab.T))


def clique(matrix):
    """sum over (i, j, k, l) of M_ij M_jk M_kl M_li M_ik M_jl.

    For fixed i, row k of V = M[i] * M holds M_ij M_kj over j, so the
    (i, k) term is M_ik (V M V^T)_kk.
    """
    total = 0.0
    for i in range(len(matrix)):
        v = matrix[i] * matrix
        total += float(np.sum(matrix[i] * np.sum((v @ matrix) * v, axis=1)))
    return total


def factor_traces(matrix, q):
    """What every order-q diagnostic of a separable covariance multiplies
    over its factors: sum of M^q, the contraction traces for r = 1..q-1,
    and for q = 3 the clique sum.  Computed once per factor."""
    return {
        "sum": float(np.sum(matrix**q)),
        "contraction": {r: contraction(matrix, q, r) for r in range(1, q)},
        "clique": clique(matrix) if q == 3 else None,
    }


def fourth_cumulant(traces, q):
    """Exact kappa_4 of the normalized Y[q], q in {2, 3}, from the
    factor_traces of each factor (traces factorize over the factors)."""
    var = math.factorial(q) * math.prod(t["sum"] for t in traces)
    p1 = math.prod(t["contraction"][1] for t in traces)
    if q == 2:
        return 48.0 * p1 / var**2
    if q == 3:
        u1 = math.prod(t["clique"] for t in traces)
        return (1944.0 * p1 + 1296.0 * u1) / var**2
    raise ValueError("exact fourth cumulants are written for q = 2 and 3")


def tv_constant(q):
    s = sum(
        r * math.factorial(r) ** 2 * math.comb(q, r) ** 4 * math.factorial(2 * q - 2 * r)
        for r in range(1, q)
    )
    return math.sqrt(4.0 * s / q)


def tv_bound(traces, q):
    """min(1, c_q prod_i sqrt(kappa_4 of factor i alone))."""
    prod = math.prod(math.sqrt(max(fourth_cumulant([t], q), 0.0)) for t in traces)
    return min(1.0, tv_constant(q) * prod)


# ---------------------------------------------------------------------------
# exact moments of Y[q] on a few points by Gauss-Hermite quadrature

_HERMITE = {
    1: lambda x: x,
    2: lambda x: x**2 - 1.0,
    3: lambda x: x**3 - 3.0 * x,
}


def quadrature_moments(matrix, q):
    """(E[Y^2], E[Y^4]) for Y = sum_i H_q(B_i), B ~ N(0, matrix).

    Y^4 is a polynomial of degree 4q <= 12 in the standard normal vector
    Z with B = L Z, and 7 Gauss-Hermite nodes per axis integrate degree
    13 exactly, so the result is exact up to rounding.
    """
    eig, vec = np.linalg.eigh(matrix)
    if eig.min() < -1e-12:
        raise ValueError("covariance matrix is not positive semidefinite")
    root = vec * np.sqrt(np.clip(eig, 0.0, None))
    x, w = np.polynomial.hermite_e.hermegauss(7)
    w = w / math.sqrt(2.0 * math.pi)
    m = len(matrix)
    z = np.array(list(product(x, repeat=m)))
    weight = np.prod(np.array(list(product(w, repeat=m))), axis=1)
    y = np.sum(_HERMITE[q](z @ root.T), axis=1)
    return float(np.sum(weight * y**2)), float(np.sum(weight * y**4))


# ---------------------------------------------------------------------------
# self-tests against closed forms


def _close(got, want, tol=1e-12):
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise AssertionError(f"reference self-test: {got!r} != {want!r}")


def self_test():
    """Each reference against a case whose answer is known in closed form."""
    # families at known lags
    _close(float(fgn(0.5)(1)), 0.0)
    _close(float(fgn(0.7)(1)), 2.0 ** 0.4 - 1.0)
    _close(float(cauchy(0.3)(2)), 5.0 ** -0.15)
    _close(float(exponential(2.0)(3)), math.exp(-1.5))
    # white noise: Var sum H_q = q! n; level-0 indicator is n p (1 - p)
    for q in (1, 2, 3):
        _close(hermite_variance(separable_lag_grid([white_noise()], [50]), q),
               math.factorial(q) * 50)
    _close(indicator_variance_level0(separable_lag_grid([white_noise()], [50])), 50 * 0.25)
    # the lag-sum weights against an explicit double loop over pairs
    c, sizes = exponential(1.5), (5, 3)
    pts = list(product(range(sizes[0]), range(sizes[1])))
    pairs = sum(
        (c(a[0] - b[0]) * fgn(0.3)(a[1] - b[1])) ** 2 for a in pts for b in pts
    )
    _close(hermite_variance(separable_lag_grid([c, fgn(0.3)], sizes), 2), 2.0 * float(pairs))
    pairs = sum(
        (0.3 * c(a[0] - b[0]) + 0.7 * cauchy(1.0)(a[1] - b[1])) ** 3
        for a in pts for b in pts
    )
    grid = additive_lag_grid(c, cauchy(1.0), 0.3, 0.7, *sizes)
    _close(hermite_variance(grid, 3), 6.0 * float(pairs))
    # a constant covariance (all-ones matrix J): trace((J J)^2) = n^4, every
    # 4-tuple is a clique of weight 1, and Y[2] = n H_2(B) for the one shared
    # value B, a centred chi-square with one degree of freedom times n,
    # whose normalized kappa_4 is 48 / 2^2 = 12
    ones = np.ones((6, 6))
    _close(contraction(ones, 2, 1), 6.0**4)
    _close(clique(ones), 6.0**4)
    _close(fourth_cumulant([factor_traces(ones, 2)], 2), 12.0)
    # identity matrix: trace(I) = n, cliques need i = j = k = l
    eye = np.eye(7)
    _close(contraction(eye, 3, 1), 7.0)
    _close(clique(eye), 7.0)
    # the clique sum against the brute-force 4-tuple sum on a small matrix
    m = dense_matrix(fgn(0.8), 5)
    brute = np.einsum("ij,jk,kl,li,ik,jl->", m, m, m, m, m, m)
    _close(clique(m), float(brute))
    # quadrature: one point gives E[H_q^2] = q!, E[H_2^4] = 60
    for q in (1, 2, 3):
        _close(quadrature_moments(np.eye(1), q)[0], math.factorial(q))
    _close(quadrature_moments(np.eye(1), 2)[1], 60.0)
    # independent points: E[Y^4] = n E[H^4] + 3 n (n - 1) E[H^2]^2
    _close(quadrature_moments(np.eye(3), 2)[1], 3 * 60.0 + 3 * 3 * 2 * 4.0)
    # c_2 = sqrt(2 * 1 * 1 * 16 * 2) = 8
    _close(tv_constant(2), 8.0)


if __name__ == "__main__":
    self_test()
    print("reference self-tests passed")
