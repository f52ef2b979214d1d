"""Exact chaos-calculus diagnostics on rectangular lattices.

Everything here is a deterministic function of (covariance, lattice, q):
the variance of the Hermite functional Y[q] = sum_t H_q(B_t), squared
contraction norms of its kernel, the fourth cumulant of the normalized
functional, the total-variation bound against the Gaussian, the additive
variance decomposition, gamma quotients, and the rank-reduction ratio.

Two kernels give every exact value.  The lag window (_lag_window): pair
sums over a window of sizes n_j collapse to lag sums sum_z W(z) g(C(z))
with W(z) = prod_j (n_j - |z_j|), which factor over separable blocks and
split binomially over additive ones.  One covariance matrix M per block
(_matrix_terms): with A = M^(.r) and B = M^(.(q-r)) elementwise,
||f (x)_r f||^2 = trace((A B)^2), and the q = 3 fourth cumulant adds the
4-clique diagram sum of M (Peccati & Taqqu 2011, Wiener Chaos: Moments,
Cumulants and Diagrams).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import owens_t
from scipy.stats import norm

from ._errors import ModelError, NumericalError
from .covariance import (
    ADDITIVE,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
    _grid_vectors,
    _lag_values,
    composite_values,
)
from .fieldsim import DENSE_LIMIT, LatticeSpec, _check_blocks, dense_covariance_matrix
from .hermite import INDICATOR, hermite_rank, phi_second_moment

MAX_CHAOS_ORDER = 30
#: largest per-factor point count for the exact q=3 clique sum (cost n^4)
CLIQUE_LIMIT = 256
#: factorized variances self-check against the direct lag sum on windows
#: of at most this many lags
_VAR_CHECK_LAGS = 20_000
_DIRECT_LAG_LIMIT = 2**24


def _check_q(q: int):
    if q < 1:
        raise ModelError("chaos order q must be >= 1")
    if q > MAX_CHAOS_ORDER:
        raise ModelError(
            f"q = {q} exceeds the overflow guard (q <= {MAX_CHAOS_ORDER})"
        )


def _lag_window(model, sizes):
    """(C(z), W(z)) over every lag z of a window of sizes n_j, in axis-major
    order: the covariance of ``model`` (a factor or a composite), evaluated
    once, and the pair weight W(z) = prod_j (n_j - |z_j|)."""
    axes = [np.arange(-(n - 1), n) for n in sizes]
    lags = _grid_vectors(axes).reshape(-1, len(sizes))
    weights = None
    for n, ax in zip(sizes, axes):
        wa = (n - np.abs(ax)).astype(float)
        weights = wa if weights is None else np.multiply.outer(weights, wa)
    evaluate = _lag_values if isinstance(model, FactorCovariance) else composite_values
    return evaluate(model, lags), weights.ravel()


def _lag_sum(cov: CompositeCovariance, lattice: LatticeSpec, g) -> float:
    """sum_z W(z) g(C(z)) over every window lag z, g acting elementwise on
    the covariance values; ModelError past _DIRECT_LAG_LIMIT lags."""
    sizes = lattice.all_sizes
    count = math.prod(2 * n - 1 for n in sizes)
    if count > _DIRECT_LAG_LIMIT:
        raise ModelError(
            f"direct lag sum over {count} lags is too large; "
            "use a factorized structure or a smaller window"
        )
    values, weights = _lag_window(cov, sizes)
    return float(np.sum(weights * g(values)))


def _checked_variance(cov, lattice, q: int, variance: float) -> float:
    """A factorized Var(Y[q]), checked against the direct lag sum on windows
    of at most _VAR_CHECK_LAGS lags, to 1e-12 relative to the sum of the
    terms' magnitudes, q! sum_z W(z) |C(z)|^q: the scale of the rounding in
    either sum, and the sum itself unless odd q meets negative C."""
    if math.prod(2 * n - 1 for n in lattice.all_sizes) <= _VAR_CHECK_LAGS:
        direct = math.factorial(q) * _lag_sum(cov, lattice, lambda c: c**q)
        scale = math.factorial(q) * _lag_sum(cov, lattice, lambda c: np.abs(c) ** q)
        if abs(variance - direct) > 1e-12 * scale:
            raise NumericalError(
                f"factorized variance {variance!r} disagrees with the "
                f"direct lag sum {direct!r}"
            )
    return variance


# ---------------------------------------------------------------------------
# variances


def variance_hermite(cov: CompositeCovariance, lattice: LatticeSpec, q: int) -> float:
    """Var(Y[q]) = q! sum over lattice pairs of C^q, exactly."""
    return _model_terms(cov, lattice, q, ())[0][0]


@dataclass(frozen=True)
class PhiVariance:
    """Var of the phi functional, and what its chaos sum may have dropped.

    ``tail_bound`` is 0 for an indicator phi, whose variance is the exact
    orthant lag sum, and for a pure phi, a single chaos.  For any other
    phi it caps what the truncated chaos sum dropped, via |C| <= 1: each
    missing chaos contributes at most q! a_q^2 N_tot^2, and the missing
    Parseval mass sum_{q > qmax} q! a_q^2 is E[phi^2] minus the retained
    mass.  None when phi was not supplied.
    """

    value: float
    rank: int
    tail_bound: Optional[float] = None


def variance_phi(cov, lattice, coefficients, phi=None) -> PhiVariance:
    """Var(Y) for Y = sum_t phi(B_t), for every phi and structure.

    An indicator phi takes variance_indicator.  Otherwise Var(Y) =
    sum_q a_q^2 Var(Y[q]) over the retained chaoses, each chaos
    factorized for separable and additive models.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    rank = hermite_rank(coeffs)
    if phi is not None and phi.kind == INDICATOR:
        return PhiVariance(value=variance_indicator(cov, lattice, phi.level),
                           rank=rank, tail_bound=0.0)
    value = 0.0
    for q in range(rank, len(coeffs)):
        if coeffs[q] != 0.0:
            value += coeffs[q] ** 2 * variance_hermite(cov, lattice, q)
    tail = None
    if phi is not None:  # a pure phi has no Parseval gap
        retained = sum(math.factorial(q) * coeffs[q] ** 2 for q in range(len(coeffs)))
        gap = max(0.0, phi_second_moment(phi) - retained)
        tail = gap * float(lattice.n_total) ** 2
    return PhiVariance(value=float(value), rank=rank, tail_bound=tail)


def variance_indicator(cov: CompositeCovariance, lattice: LatticeSpec,
                       level: float) -> float:
    """Var(sum_t 1{B_t >= a}) for any structure: the lag sum of W(z) times
    P(X >= a, Y >= a) - Phibar(a)^2 = Phibar(a) - 2 T(a, sqrt((1-rho)/(1+rho)))
    - Phibar(a)^2 for a pair with correlation rho = C(z), T being Owen's T."""
    _check_blocks(cov, lattice)
    tail = float(norm.sf(level))

    def excess(rho):
        with np.errstate(divide="ignore"):
            joint = tail - 2.0 * owens_t(level, np.sqrt((1.0 - rho) / (1.0 + rho)))
        return joint - tail**2

    return _lag_sum(cov, lattice, excess)


# ---------------------------------------------------------------------------
# contraction norms


def _factor_matrix(factor: FactorCovariance, sizes) -> np.ndarray:
    if len(sizes) == 1:
        col = _lag_values(factor, np.arange(sizes[0], dtype=float)[:, None])
        return toeplitz(col)
    comp = CompositeCovariance(SEPARABLE, (factor,))
    return dense_covariance_matrix(comp, LatticeSpec((tuple(sizes),)))


def _trace_abab(m: np.ndarray, q: int, r: int) -> float:
    """trace((AB)^2) with A = M^(.r), B = M^(.(q-r)); power 1 is M itself,
    and A serves as B when r = q - r."""
    a_mat = m if r == 1 else m**r
    ab = a_mat @ (a_mat if q == 2 * r else m if q - r == 1 else m ** (q - r))
    return float(np.einsum("ij,ji->", ab, ab))


def _clique_sum(matrix: np.ndarray) -> float:
    """Sum over point 4-tuples of the product of all six pair covariances."""
    total = 0.0
    for u in range(len(matrix)):
        dm = matrix[:, u, None] * matrix  # diag(M[:, u]) @ M
        total += float(np.einsum("ij,ji->", dm @ dm, dm))
    return total


def _matrix_terms(m: np.ndarray, q: int, orders, clique: bool):
    """({r: trace((AB)^2) for r in orders}, clique sum of M if asked, else
    None) from one covariance matrix M; r > q/2 reuses q - r, as
    trace((AB)^2) = trace((BA)^2)."""
    norms = {}
    for r in orders:
        norms[r] = norms[q - r] if q - r in norms else _trace_abab(m, q, r)
    return norms, (_clique_sum(m) if clique else None)


def _contraction_terms(cov, lattice, q: int, orders, cliques):
    """The model's _matrix_terms, plus each factor's for a separable model
    (else None), whose products make the model's.  Each block's matrix is
    built once, if ``orders`` is non-empty: a separable model's factor
    matrices (DENSE_LIMIT points each), else the full-lattice one.
    ``cliques`` asks for the q = 3 clique sums of blocks of at most
    CLIQUE_LIMIT points: "model" for the model's, which needs every
    factor's; "factors" for each factor's own too (the TV bound); None."""
    separable = cov.structure == SEPARABLE
    if not orders:
        return ({}, None), ([({}, None)] * len(cov.factors) if separable else None)
    want = q == 3 and cliques is not None
    if not separable:
        matrix = dense_covariance_matrix(cov, lattice)
        return _matrix_terms(matrix, q, orders, want and lattice.n_total <= CLIQUE_LIMIT), None
    points = [math.prod(sizes) for sizes in lattice.blocks]
    if cliques == "model" and max(points) > CLIQUE_LIMIT:
        want = False  # the model's clique sum needs every factor's
    factors = []
    for factor, sizes, n in zip(cov.factors, lattice.blocks, points):
        if n > DENSE_LIMIT:
            raise ModelError(
                f"contraction norms are capped at {DENSE_LIMIT} points per factor "
                f"({n} requested)"
            )
        matrix = _factor_matrix(factor, sizes)
        factors.append(_matrix_terms(matrix, q, orders, want and n <= CLIQUE_LIMIT))
    norms, sums = zip(*factors)
    model = ({r: math.prod(n[r] for n in norms) for r in orders},
             None if None in sums else math.prod(sums))
    return model, factors


def contraction_norm(cov: CompositeCovariance, lattice: LatticeSpec,
                     q: int, r: int) -> float:
    """||f (x)_r f||^2 for the kernel of Y[q]; factorizes over blocks."""
    _check_q(q)
    if not 1 <= r <= q - 1:
        raise ModelError("contraction order r must satisfy 1 <= r <= q-1")
    _check_blocks(cov, lattice)
    return _contraction_terms(cov, lattice, q, (r,), None)[0][0][r]


# ---------------------------------------------------------------------------
# fourth cumulant and the TV bound


def _model_terms(cov, lattice, q: int, orders, cliques=None):
    """The model's (variance, norms, clique sum), plus each factor's on its
    own block window for a separable model (else None); ``orders`` and
    ``cliques`` as in _contraction_terms.  Factorized variances, separable
    and additive, are checked against the direct lag sum."""
    _check_q(q)
    _check_blocks(cov, lattice)
    if cov.structure == SEPARABLE:
        model, blocks = _contraction_terms(cov, lattice, q, orders, cliques)
        variances = []
        for factor, sizes in zip(cov.factors, lattice.blocks):
            values, weights = _lag_window(factor, sizes)
            variances.append(math.factorial(q) * float(np.sum(weights * values**q)))
        variance = math.prod(variances) / math.factorial(q) ** (len(variances) - 1)
        variance = _checked_variance(cov, lattice, q, variance)
        return (variance, *model), [(v, *b) for v, b in zip(variances, blocks)]
    if cov.structure == ADDITIVE:
        variance = additive_variance(cov, lattice, q).total
    else:
        variance = math.factorial(q) * _lag_sum(cov, lattice, lambda c: c**q)
    return (variance, *_contraction_terms(cov, lattice, q, orders, cliques)[0]), None


def _kappa4(q: int, variance: float, norms: dict, clique: Optional[float]):
    """kappa_4 of Y[q]/sqrt(Var) from its terms; returns (value, exact flag).

    q = 1 is Gaussian (0, exact).  q = 2 and q = 3 use the exact
    fourth-moment identities; the q = 3 one needs the 4-clique sum, which
    is replaced by its contraction-norm majorant (flag cleared) past
    CLIQUE_LIMIT points.  q >= 4 always reports the upper bound
    sum_r q!^2 binom(q,r)^2 (1 + binom(2q-2r, q-r)) ||f (x)_r f||^2 / Var^2.
    """
    if q == 1:
        return 0.0, True
    p1 = norms[1]
    if q == 2:
        return 48.0 * p1 / variance**2, True
    if q == 3:
        if clique is not None:
            return (1944.0 * p1 + 1296.0 * clique) / variance**2, True
        return 3240.0 * p1 / variance**2, False  # clique sum <= p1
    total = sum(
        math.factorial(q) ** 2
        * math.comb(q, r) ** 2
        * (1 + math.comb(2 * q - 2 * r, q - r))
        * pr
        for r, pr in norms.items()
    )
    return total / variance**2, False


def fourth_cumulant(cov: CompositeCovariance, lattice: LatticeSpec, q: int):
    """kappa_4 of Y[q]/sqrt(Var) and its exact flag; see _kappa4."""
    if q == 1:
        return 0.0, True
    terms, _ = _model_terms(cov, lattice, q, range(1, 2 if q <= 3 else q), "model")
    return _kappa4(q, *terms)


def cq_constant(q: int) -> float:
    """The constant in front of the product-of-cumulants TV bound."""
    if q < 2:
        raise ModelError("the TV constant needs q >= 2")
    s = sum(
        r * math.factorial(r) ** 2 * math.comb(q, r) ** 4
        * math.factorial(2 * q - 2 * r)
        for r in range(1, q)
    )
    return math.sqrt(4.0 * s / q)


def _tv(q: int, factors) -> float:
    prod = math.prod(math.sqrt(max(_kappa4(q, *terms)[0], 0.0)) for terms in factors)
    return min(1.0, cq_constant(q) * prod)


def tv_bound(cov: CompositeCovariance, lattice: LatticeSpec, q: int) -> float:
    """d_TV(normalized Y[q], N) <= c_q prod_i sqrt(kappa_4 of factor i).

    Separable covariances only; the per-factor cumulants are computed on
    the factor's own block window.  Clamped at 1 (it is a TV distance).
    """
    if cov.structure != SEPARABLE:
        raise ModelError("the TV bound applies to separable covariances only")
    if q < 2:
        raise ModelError("the TV bound needs q >= 2")
    _, factors = _model_terms(cov, lattice, q, range(1, 2 if q <= 3 else q), "factors")
    return _tv(q, factors)


# ---------------------------------------------------------------------------
# additive decomposition, gamma quotients, rank reduction


@dataclass(frozen=True)
class AdditiveVariance:
    """Var(Y[q]) split as sum_k binom(q,k)^2 V1(k) V2(q-k)."""

    terms: dict
    total: float


def additive_variance(cov: CompositeCovariance, lattice: LatticeSpec,
                      q: int) -> AdditiveVariance:
    if cov.structure != ADDITIVE:
        raise ModelError("additive_variance requires an additive covariance")
    _check_q(q)
    _check_blocks(cov, lattice)
    v1, v2 = [], []  # V(k) = k! sum over block pairs of (w K)^k; V(0) = volume^2
    for v, factor, sizes, weight in zip((v1, v2), cov.factors, lattice.blocks, cov.weights):
        values, weights = _lag_window(factor, sizes)
        v.append(float(math.prod(sizes)) ** 2)
        v.extend(math.factorial(k) * weight**k * float(np.sum(weights * values**k))
                 for k in range(1, q + 1))
    terms = {k: math.comb(q, k) ** 2 * v1[k] * v2[q - k] for k in range(q + 1)}
    total = _checked_variance(cov, lattice, q, float(sum(terms.values())))
    return AdditiveVariance(terms=terms, total=total)


@dataclass(frozen=True)
class GammaQuotient:
    """Pair-sum growth quotient of one block: (sum_pairs K^q) / volume^2.

    ``surrogate`` is the cheaper asymptotic stand-in, the plain lag sum
    over the window box divided by the volume.
    """

    exact: float
    surrogate: float


def gamma_quotient(factor: FactorCovariance, sizes, q: int,
                   weight: float = 1.0) -> GammaQuotient:
    _check_q(q)
    sizes = tuple(int(n) for n in sizes)
    vol = float(math.prod(sizes))
    values, weights = _lag_window(factor, sizes)
    exact = weight**q * float(np.sum(weights * values**q)) / vol**2
    plain = float(np.sum(values**q))
    return GammaQuotient(exact=exact, surrogate=weight**q * plain / vol)


def reduction_ratio(cov, lattice, coefficients, phi=None) -> float:
    """Var(Y) over the leading-chaos part a_R^2 Var(Y[R]); always >= 1."""
    coeffs = np.asarray(coefficients, dtype=float)
    rank = hermite_rank(coeffs)
    leading = coeffs[rank] ** 2 * variance_hermite(cov, lattice, rank)
    return variance_phi(cov, lattice, coeffs, phi=phi).value / leading


# ---------------------------------------------------------------------------
# the combined report


@dataclass(frozen=True)
class ChaosReport:
    q: int
    variance: float
    contraction_norms: dict
    fourth_cumulant: float
    fourth_exact: bool
    tv_bound: Optional[float]
    notes: tuple


def chaos_report(cov: CompositeCovariance, lattice: LatticeSpec,
                 q: int) -> ChaosReport:
    """All diagnostics for one chaos order, ready for serialization."""
    terms, factors = _model_terms(cov, lattice, q, range(1, q), "factors")
    k4, exact = _kappa4(q, *terms)
    notes = []
    if not exact:
        notes.append("fourth cumulant is an upper bound, not the exact value")
    tv = None
    if factors is not None and q >= 2:
        tv = _tv(q, factors)
        notes.append("tv bound from per-factor fourth cumulants, clamped at 1")
    return ChaosReport(
        q=q,
        variance=terms[0],
        contraction_norms=terms[1],
        fourth_cumulant=k4,
        fourth_exact=exact,
        tv_bound=tv,
        notes=tuple(notes),
    )
