"""Exact chaos-calculus diagnostics on rectangular lattices.

Everything here is a deterministic function of (covariance, lattice, q):
the variance of the Hermite functional Y[q] = sum_t H_q(B_t), squared
contraction norms of its kernel, the fourth cumulant of the normalized
functional, the total-variation bound against the Gaussian, the additive
variance decomposition, gamma quotients, and the rank-reduction ratio.

Two kernels give every exact value, both from covariance's lag windows
(_lag_window).  Pair sums over a window of sizes n_j collapse to lag sums
sum_z W(z) g(C(z)) with W(z) = prod_j (n_j - |z_j|), which factor over
separable blocks and split binomially over additive ones.  The covariance
blocks (_blocks: one per factor of a separable model, else the
full-lattice matrix, each gathered from its window) give the diagram sums
S(a, b, c) of the fourth cumulant (Peccati & Taqqu 2011, Wiener Chaos:
Moments, Cumulants and Diagrams), one record per block (_block_terms), and
a model's sums are the products over its blocks: kappa_4 Var^2 sums them
over the connected 4-vertex diagrams, edge multiplicities a, b, c with
a + b + c = q.  A diagram with c = 0 is a 4-cycle, ||f (x)_a f||^2 =
trace((A B)^2) with A = M^(.a), B = M^(.b) elementwise; one with a, b,
c > 0 is a generalized 4-clique.  A 1-D factor's M is symmetric Toeplitz,
so its 4-cycles come from its first column alone, row by row through the
displacement recurrence of A B (Kailath & Sayed 1995), in O(n^2) time and
O(n) memory, summed by einsum with no BLAS call whose thread count could
move their bits, and its cliques from sums over lag triples, each lag row
convolved with the first column by real FFTs, in O(n^2 log n) time and
O(L) memory per row, L ~ 3n (_lag_clique_sum), with no matrix product.
Every other block takes dense products, and each block's cliques only
within its kernel's budget.  Every block is persymmetric: C is even,
C(z) = C(-z), and reversing the point order (J, in axis-major order)
negates every lag, so J M J = M, and J A J = A for every elementwise power
A of M.  Each kernel sums one term per symmetry orbit, weighted by the
orbit's size:
  - 4-cycles (_toeplitz_trace_abab): the terms P_ij P_ji of P = A B, over
    the orbits of transposition and of (i, j) -> (n-1-i, n-1-j), on the
    quarter i <= j <= n-1-i of P;
  - dense cliques (_clique_sum): the per-point terms, over the pairs
    {u, N-1-u};
  - lag-triple cliques (_lag_clique_sum): the lag triples, over the pairs
    {d, -d}, and when b = c over the exchange of d2 and d3 too.

The excursion indicator 1{x >= a} has every chaos, so its variance is not
summed by chaos: it is the lag sum of the bivariate normal orthant excess
P(X >= a, Y >= a) - Phibar(a)^2, by Genz's quadrature (Genz 2004,
Statistics and Computing 14; latfield._gauss).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._errors import ModelError, NumericalError
from ._gauss import orthant_excess
from .covariance import (
    ADDITIVE,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
    _lag_window,
    _multiplied_out,
    _window_matrix,
)
from .fieldsim import DENSE_LIMIT, LatticeSpec, _check_blocks, dense_covariance_matrix
from .hermite import (INDICATOR, MAX_CHAOS_ORDER, hermite_coefficients, hermite_rank,
                      phi_second_moment)

#: clique budget of a dense block (a multi-D factor or a full lattice): n
#: points take their t(q) clique diagrams, n^4 each, when t(q) n^4 <=
#: CLIQUE_LIMIT^4 (n <= 256 at q = 3 and 4)
CLIQUE_LIMIT = 256
#: clique budget of a 1-D factor, n^3 lag triples per clique: t(q) n^3 <=
#: _LAG_CLIQUE_LIMIT^3 (n <= 1024 at q = 3 and 4).  Their FFT sum takes
#: O(n^2 log n): one clique sum at n = 1024 takes about 0.09 s and 3 MB on
#: 2 CPUs (0.33 s and 40 MB as matrix products), about 5 ms at n = 256
_LAG_CLIQUE_LIMIT = 1024
#: points per block of the lag-triple clique sum: its rows (u, and v when
#: b != c) times the transform length, about 37 bytes each in its buffer
_LAG_CLIQUE_POINTS = 2**16
#: largest 1-D factor whose 4-cycles are summed, O(n^2) each
_TOEPLITZ_LIMIT = 2**15
#: factorized variances self-check against the direct lag sum on windows
#: of at most this many lags
_VAR_CHECK_LAGS = 20_000


def _check_q(q: int):
    if q < 1:
        raise ModelError("chaos order q must be >= 1")
    if q > MAX_CHAOS_ORDER:
        raise ModelError(
            f"q = {q} exceeds the overflow guard (q <= {MAX_CHAOS_ORDER})"
        )


def _lag_sum(cov: CompositeCovariance, lattice: LatticeSpec, g, window=None) -> float:
    """sum_z W(z) g(C(z)) over every window lag z, g acting elementwise on
    the covariance values, from ``window`` when given (the _lag_window of
    cov, already built).  C is even and the window's lags run symmetrically
    about z = 0, its middle entry, so g is evaluated up to z = 0 and
    mirrored."""
    values, weights = _lag_window(cov, lattice.all_sizes) if window is None else window
    half = g(values[:values.size // 2 + 1])
    return float(np.sum(weights * np.concatenate((half, half[-2::-1]))))


def _checked_variance(cov, lattice, q: int, variance: float, parts=None) -> float:
    """A factorized Var(Y[q]), checked against the direct lag sum on windows
    of at most _VAR_CHECK_LAGS lags, to 1e-12 relative to the sum of the
    terms' magnitudes, q! sum_z W(z) |C(z)|^q: the scale of the rounding in
    either sum, and the sum itself unless odd q meets negative C.  The
    window is built once for both sums, from a separable model's factor
    windows ``parts`` when given."""
    if math.prod(2 * n - 1 for n in lattice.all_sizes) <= _VAR_CHECK_LAGS:
        window = _lag_window(cov, lattice.all_sizes) if parts is None else _multiplied_out(parts)
        direct = math.factorial(q) * _lag_sum(cov, lattice, lambda c: c**q, window)
        scale = math.factorial(q) * _lag_sum(cov, lattice, lambda c: np.abs(c) ** q, window)
        if abs(variance - direct) > 1e-12 * scale:
            raise NumericalError(
                f"factorized variance {variance!r} disagrees with the "
                f"direct lag sum {direct!r}"
            )
    return variance


# ---------------------------------------------------------------------------
# variances


def _variances(cov, lattice, q: int):
    """Var(Y[q]), plus each factor's on its own block window for a separable
    model (else None).  Factorized variances, separable and additive, are
    checked against the direct lag sum; a separable model's factor windows
    are built once, for its variances and the check both."""
    _check_q(q)
    _check_blocks(cov, lattice)
    if cov.structure == ADDITIVE:
        return additive_variance(cov, lattice, q).total, None
    if cov.structure != SEPARABLE:
        return math.factorial(q) * _lag_sum(cov, lattice, lambda c: c**q), None
    parts = list(map(_lag_window, cov.factors, lattice.blocks))
    variances = [math.factorial(q) * float(np.sum(weights * values**q))
                 for values, weights in parts]
    variance = math.prod(variances) / math.factorial(q) ** (len(variances) - 1)
    return _checked_variance(cov, lattice, q, variance, parts), variances


def variance_hermite(cov: CompositeCovariance, lattice: LatticeSpec, q: int) -> float:
    """Var(Y[q]) = q! sum over lattice pairs of C^q, exactly."""
    return _variances(cov, lattice, q)[0]


@dataclass(frozen=True)
class PhiVariance:
    """Var of the phi functional, and what its chaos sum may have dropped.

    ``tail_bound`` is 0 for an indicator phi, whose variance is the exact
    orthant lag sum, and for a pure phi, a single chaos.  For a custom phi
    it caps what the chaos sum truncated at its qmax dropped, via
    |C| <= 1: each missing chaos contributes at most q! a_q^2 N_tot^2, and
    the missing Parseval mass sum_{q > qmax} q! a_q^2 is E[phi^2] minus the
    retained mass.
    """

    value: float
    rank: int
    tail_bound: float


def variance_phi(cov, lattice, phi) -> PhiVariance:
    """Var(Y) for Y = sum_t phi(B_t), for every phi spec and structure.

    An indicator phi takes variance_indicator.  Otherwise Var(Y) =
    sum_q a_q^2 Var(Y[q]) over the chaoses of hermite_coefficients(phi),
    each chaos factorized for separable and additive models.
    """
    coeffs = hermite_coefficients(phi)
    rank = hermite_rank(coeffs)
    if phi.kind == INDICATOR:
        return PhiVariance(value=variance_indicator(cov, lattice, phi.level),
                           rank=rank, tail_bound=0.0)
    value = 0.0
    for q in range(rank, len(coeffs)):
        if coeffs[q] != 0.0:
            value += coeffs[q] ** 2 * variance_hermite(cov, lattice, q)
    retained = sum(math.factorial(q) * coeffs[q] ** 2 for q in range(len(coeffs)))
    gap = max(0.0, float(phi_second_moment(phi) - retained))
    return PhiVariance(value=float(value), rank=rank,
                       tail_bound=gap * float(lattice.n_total) ** 2)


def variance_indicator(cov: CompositeCovariance, lattice: LatticeSpec,
                       level: float) -> float:
    """Var(sum_t 1{B_t >= a}) for any structure: the lag sum of W(z) times
    the orthant excess P(X >= a, Y >= a) - Phibar(a)^2 of a pair with
    correlation rho = C(z), to double precision by Genz's bivariate normal
    quadrature (Genz 2004, Statistics and Computing 14), which sums the
    excess itself instead of subtracting Phibar(a)^2 from the joint
    probability.  At a = 0 it is Sheppard's asin(rho) / 2 pi."""
    _check_blocks(cov, lattice)
    return _lag_sum(cov, lattice, lambda rho: orthant_excess(level, rho))


# ---------------------------------------------------------------------------
# contraction norms


def _factor_block(factor: FactorCovariance, sizes) -> np.ndarray:
    """A factor's covariance over its block window, from its lag window: in
    1-D the Toeplitz matrix's first column, lags 0 .. n-1 (_TOEPLITZ_LIMIT
    points), else the dense matrix (DENSE_LIMIT points)."""
    n = math.prod(sizes)
    limit = _TOEPLITZ_LIMIT if len(sizes) == 1 else DENSE_LIMIT
    if n > limit:
        raise ModelError(
            f"contraction norms are capped at {limit} points per factor "
            f"({n} requested)"
        )
    values = _lag_window(factor, sizes)[0]
    return values[n - 1:] if len(sizes) == 1 else _window_matrix(values, sizes)


def _trace_abab(m: np.ndarray, q: int, r: int) -> float:
    """trace((AB)^2) with A = M^(.r), B = M^(.(q-r)), from r <= q/2, so r
    and q - r give the same bits (trace((AB)^2) = trace((BA)^2)); power 1
    is M itself, and A serves as B when r = q - r."""
    r = min(r, q - r)
    a_mat = m if r == 1 else m**r
    ab = a_mat @ (a_mat if q == 2 * r else m ** (q - r))
    return float(np.einsum("ij,ji->", ab, ab))


def _toeplitz_matvec(col: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the symmetric Toeplitz T with first column ``col``: T is the
    window matrix of (col reversed, col), summed by einsum, not by BLAS,
    whose dot products (np.convolve's too) move their last bits with the
    thread count past about 10 000 elements."""
    rows = _window_matrix(np.concatenate((col[:0:-1], col)), (len(col),)).T  # T, rows forward
    return np.einsum("ij,j", rows, x)


def _mirror_sum(terms, n: int) -> float:
    """sum_{i < n} T(i) for T(i) = T(n-1-i), from its first ceil(n/2) terms:
    twice those below the middle, plus the middle term when n is odd."""
    half = n // 2
    return float(2 * sum(terms[:half]) + sum(terms[half:]))


def _displacement_rows(a: np.ndarray, b: np.ndarray, first_row: np.ndarray):
    """Rows i < n/2 of P = A B on columns i .. n-1-i, for symmetric Toeplitz
    A and B with first columns a and b, from P's first row by the
    displacement recurrence P[i, j] = P[i-1, j-1] + a(i) b(j) - a(n-i) b(n-j):
    row i takes row i-1 but its last two entries.  Each row is updated in
    place in ``first_row``, so a yielded row holds only until the next."""
    n = len(a)
    row, scaled = first_row, np.empty_like(first_row)
    yield row
    for i in range(1, (n + 1) // 2):
        row, term = row[:-2], scaled[:len(row) - 2]
        np.add(row, np.multiply(a[i], b[i:n - i], out=term), out=row)
        np.subtract(row, np.multiply(a[n - i], b[n - i:i:-1], out=term), out=row)
        yield row


def _toeplitz_trace_abab(col: np.ndarray, q: int, r: int) -> float:
    """_trace_abab of the symmetric Toeplitz M with first column ``col``:
    trace((AB)^2) = sum_ij P_ij Q_ij with P = AB and Q = BA = P^T, whose
    first rows are B a and A b; Q is P when r = q - r.  The term P_ij P_ji
    is fixed by transposition and, as A and B are persymmetric (J P J = J A
    J J B J = P), by (i, j) -> (n-1-i, n-1-j).  So only i <= j <= n-1-i is
    summed, row by row: four times the orbit inside, twice the diagonal and
    the anti-diagonal ends, and once the centre when n is odd, each row
    summed by einsum, with no BLAS call.  Like _trace_abab it computes from
    r <= q/2."""
    r = min(r, q - r)
    a = col**r
    n = len(col)
    if q == 2 * r:
        pairs = ((p, p) for p in _displacement_rows(a, a, _toeplitz_matvec(a, a)))
    else:
        b = col ** (q - r)
        pairs = zip(_displacement_rows(a, b, _toeplitz_matvec(b, a)),
                    _displacement_rows(b, a, _toeplitz_matvec(a, b)))
    inner, ends = [], []
    for p, t in pairs:
        inner.append(np.einsum("i,i", p[1:-1], t[1:-1]))
        ends.append(p[0] * t[0] + (p[-1] * t[-1] if len(p) > 1 else 0.0))
    centre = ends.pop() if n % 2 else 0.0
    return float(4 * sum(inner) + 2 * sum(ends) + centre)


def _clique_triples(q: int):
    """The clique diagrams of order q: a >= b >= c >= 1 with a + b + c = q."""
    return [(a, b, q - a - b) for a in range(1, q) for b in range(1, a + 1)
            if 1 <= q - a - b <= b]


def _clique_sum(matrix: np.ndarray, triple) -> float:
    """S(a, b, c) = sum over point 4-tuples (i, j, k, l) of A_ij A_kl B_ik
    B_jl C_il C_jk with A, B, C = M^(.a), M^(.b), M^(.c): sum_u T(u), T(u) =
    trace(P Q R) with P = diag(A_u.) C, Q = diag(B_u.) A, R = diag(C_u.) B
    (one matrix at a = b = c), in buffers reused for every u, as fresh
    temporaries fault their pages in again whenever the allocator returns
    them to the OS.  M is persymmetric (J M J = M, as C is even), so
    relabelling every point i as N-1-i gives T(u) = T(N-1-u), and u runs
    over the first ceil(N/2) points only."""
    a, b, c = triple
    n = len(matrix)
    power = {k: matrix if k == 1 else matrix**k for k in triple}
    scaled = {key: np.empty_like(matrix) for key in {(a, c), (b, a), (c, b)}}
    pq, terms = np.empty_like(matrix), []
    for u in range((n + 1) // 2):
        for (x, y), out in scaled.items():
            np.multiply(power[x][:, u, None], power[y], out=out)
        terms.append(float(np.einsum("ij,ji->", np.matmul(scaled[a, c], scaled[b, a], out=pq),
                                     scaled[c, b])))
    return _mirror_sum(terms, n)


@functools.lru_cache
def _transform_length(m: int) -> int:
    """The smallest L >= m whose only prime factors are 2 and 3."""
    best, three = 1 << (m - 1).bit_length(), 1
    while three < best:
        best, three = min(best, three << ((m - 1) // three).bit_length()), 3 * three
    return best


def _lag_clique_sum(col: np.ndarray, triple) -> float:
    """_clique_sum of the symmetric Toeplitz M with first column ``col``,
    over lag triples in O(n^2 log n): with j, k, l = i + d1, i + d2, i + d3,

        S = sum_d W(d) al(d1) al(d3 - d2) be(d2) be(d3 - d1) ga(d3) ga(d2 - d1)

    for al, be, ga = col^a, col^b, col^c (zero past lag n - 1) and W = n -
    (max - min of {0, d1, d2, d3}), the number of points i that keep all
    four in the block.  Negating every lag fixes each term, so only d1 >= 0
    is summed, twice for d1 > 0.  For fixed d1 >= 0, u(d2) = be(d2) ga(d2 -
    d1) and v(d3) = ga(d3) be(d3 - d1) on the lags -(n-1) .. n-1: on d3 >=
    d2, W = n - max(d1, d3) + min(0, d2), and on d3 <= d2 the same with d2
    and d3 exchanged.  With g = (al(0)/2, al(1), .., al(n-1)), whose halved
    lag 0 splits d2 = d3 between the two sides (same W), the causal
    convolution (x * g)(d) = sum_{e <= d} x(e) g(d - e) and the correlation
    (x . g)(d) = sum_{e >= d} g(e - d) x(e), the two sides add up to

        sum w(u) v + sum w(v) u,  w(x) = (x * g) (n - max(d1, .)) + min(0, .) (x . g)

    A block of d1 rows takes one batched real FFT of its rows x (u, and v
    when b != c) at a length L >= 3n - 2 made of 2s and 3s, so that nothing
    wraps around into the 2n - 1 lags, and one batched inverse of X G and X
    conj(G), g's spectrum G computed once: three transforms per row, no
    matrix product.  Blocks hold _LAG_CLIQUE_POINTS / L rows x, in buffers
    reused for every block.  When b = c, u = v, so the two sides are equal:
    one is summed, twice.  The per-row sums are added up once, at the end,
    so the block size moves no bit."""
    n, width = len(col), 2 * len(col) - 1
    padded = np.zeros(4 * n - 3)  # lag d at index d + 2n - 2, zero past lag n - 1
    padded[n - 1:2 * n - 1], padded[2 * n - 2:3 * n - 2] = col[::-1], col
    al, be, ga = (padded if k == 1 else padded**k for k in triple)
    g = al[width - 1:width - 1 + n].copy()
    g[0] /= 2
    length = _transform_length(3 * n - 2)
    spectrum = np.fft.rfft(g, length)
    conjugate = spectrum.conj()
    lags = np.arange(1 - n, n, dtype=float)
    top, below = n - lags, lags[:n - 1]  # n - d; min(0, d) where d < 0
    heads = top[n - 1:, None]  # n - d1
    one_side = triple[1] == triple[2]
    stack = 1 if one_side else 2
    rows = min(n, max(1, _LAG_CLIQUE_POINTS // (stack * length)))
    # the rows, their spectra times G and conj(G), and the inverses, in one
    # buffer: the heap keeps one freed block for the next call, where
    # several are handed back to the OS and fault their pages in again
    m, bins = stack * rows, length // 2 + 1
    work = np.empty(m * (width + 4 * bins + 2 * length))
    xs = work[:m * width].reshape(stack, rows, width)
    fs = work[m * width:m * (width + 4 * bins)].view(complex).reshape(2, stack, rows, bins)
    cs = work[m * (width + 4 * bins):].reshape(2, stack, rows, length)
    sides, base = np.empty(n), np.arange(n - 1, 3 * n - 2)  # the index of lag d
    for start in range(0, n, rows):
        d1 = np.arange(start, min(n, start + rows))
        shifted = base - d1[:, None]  # the index of lag d - d1
        x, f, c = xs[:, :len(d1)], fs[:, :, :len(d1)], cs[:, :, :len(d1)]
        np.multiply(be[n - 1:3 * n - 2], ga[shifted], out=x[0])  # u
        if not one_side:
            np.multiply(ga[n - 1:3 * n - 2], be[shifted], out=x[1])  # v
        np.fft.rfft(x, length, out=f[0])
        np.multiply(f[0], conjugate, out=f[1])
        f[0] *= spectrum
        np.fft.irfft(f, length, out=c)
        conv, corr = c[0, ..., :width], c[1, ..., :n - 1]
        conv *= np.minimum(top, heads[start:start + len(d1)])
        corr *= below
        conv[..., :n - 1] += corr  # w(u), and w(v) when b != c
        pairs = np.einsum("sij,sij->si", conv, x[::-1])  # w(u) v, w(v) u; w(u) u twice
        np.add(pairs[0], pairs[-1], out=sides[start:start + len(d1)])
    return float(np.einsum("i,i", 2 * g, sides))  # 2 g: al(0), then 2 al(d1) for d1 > 0


def _blocks(cov, lattice):
    """The covariance blocks whose diagram sums multiply to the model's: a
    separable model's factor blocks (see _factor_block), built one at a
    time, else the full-lattice matrix as its one block."""
    if cov.structure == SEPARABLE:
        return map(_factor_block, cov.factors, lattice.blocks)
    return [dense_covariance_matrix(cov, lattice)]


def _block_terms(block: np.ndarray, q: int):
    """({r: trace((AB)^2) for r = 1 .. q-1}, {t: S(t) for every clique
    triple t}) of a dense block M or the first column of a Toeplitz M, each
    trace computed once.  The clique sums are None past the block's budget:
    t(q) n^3 <= _LAG_CLIQUE_LIMIT^3 for a 1-D factor's lag triples, t(q) n^4
    <= CLIQUE_LIMIT^4 for a dense block."""
    trace, clique, power, limit = (
        (_trace_abab, _clique_sum, 4, CLIQUE_LIMIT) if block.ndim == 2
        else (_toeplitz_trace_abab, _lag_clique_sum, 3, _LAG_CLIQUE_LIMIT))
    half = {r: trace(block, q, r) for r in range(1, q // 2 + 1)}
    triples = _clique_triples(q)
    fits = len(triples) * len(block) ** power <= limit**power
    return ({r: half[min(r, q - r)] for r in range(1, q)},
            {t: clique(block, t) for t in triples} if fits else None)


def contraction_norm(cov: CompositeCovariance, lattice: LatticeSpec,
                     q: int, r: int) -> float:
    """||f (x)_r f||^2 for the kernel of Y[q]; factorizes over blocks."""
    _check_q(q)
    if not 1 <= r <= q - 1:
        raise ModelError("contraction order r must satisfy 1 <= r <= q-1")
    _check_blocks(cov, lattice)
    return math.prod((_trace_abab if b.ndim == 2 else _toeplitz_trace_abab)(b, q, r)
                     for b in _blocks(cov, lattice))


# ---------------------------------------------------------------------------
# fourth cumulant and the TV bound


def _model_terms(cov, lattice, q: int):
    """The model's (variance, norms, clique sums), plus each factor's for a
    separable model (else None): the products over its blocks' _block_terms,
    the clique sums None unless every block's fit.  q = 1 has no diagram
    and builds no block."""
    variance, variances = _variances(cov, lattice, q)
    count = 1 if variances is None else len(variances)
    blocks = ([({}, {})] * count if q == 1
              else [_block_terms(block, q) for block in _blocks(cov, lattice)])
    norms, sums = zip(*blocks)
    model = (variance, {r: math.prod(n[r] for n in norms) for r in range(1, q)},
             None if None in sums else {t: math.prod(s[t] for s in sums)
                                        for t in _clique_triples(q)})
    return model, None if variances is None else [(v, *b) for v, b in zip(variances, blocks)]


def _kappa4(q: int, variance: float, norms: dict, cliques: Optional[dict]):
    """kappa_4 of Y[q]/sqrt(Var) and its exact flag: kappa_4 Var^2 is the sum
    over unordered {a, b, c}, a + b + c = q with at most one zero, of
    perms(a,b,c) (q!/(a!b!c!))^2 q!^2 S(a,b,c), 4-cycles S(r, q-r, 0) =
    norms[r] first, then the cliques.  Past the clique budget (``cliques``
    None) it is the flagged majorant sum_{r <= q/2} q!^2 binom(q,r)^2 (2 +
    binom(2q-2r, q-r) + binom(2r, r)) norms[r], 1 + binom(q, q/2) in the
    bracket at 2r = q."""
    fq, half = math.factorial(q), range(1, q // 2 + 1)
    if cliques is not None:
        terms = {**{(r, q - r, 0): norms[r] for r in half}, **cliques}
        total = sum(len(set(itertools.permutations(t)))
                    * (fq // math.prod(map(math.factorial, t))) ** 2 * fq**2 * s
                    for t, s in terms.items())
        return total / variance**2, True
    total = sum(fq**2 * math.comb(q, r) ** 2
                * (1 + math.comb(2 * q - 2 * r, q - r) + (2 * r != q) * (1 + math.comb(2 * r, r)))
                * norms[r] for r in half)
    return total / variance**2, False


def fourth_cumulant(cov: CompositeCovariance, lattice: LatticeSpec, q: int):
    """kappa_4 of Y[q]/sqrt(Var) and its exact flag; see _kappa4."""
    return _kappa4(q, *_model_terms(cov, lattice, q)[0])


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


def tv_bound(cov: CompositeCovariance, lattice: LatticeSpec, q: int) -> float:
    """d_TV(normalized Y[q], N) <= c_q prod_i sqrt(kappa_4 of factor i).

    Separable covariances only; the per-factor cumulants are computed on
    the factor's own block window.  Clamped at 1 (it is a TV distance).
    """
    if cov.structure != SEPARABLE:
        raise ModelError("the TV bound applies to separable covariances only")
    if q < 2:
        raise ModelError("the TV bound needs q >= 2")
    return chaos_report(cov, lattice, q).tv_bound


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


def reduction_ratio(cov, lattice, phi) -> float:
    """Var(Y) over the leading-chaos part a_R^2 Var(Y[R]); always >= 1."""
    var = variance_phi(cov, lattice, phi)
    leading = hermite_coefficients(phi)[var.rank] ** 2 * variance_hermite(cov, lattice, var.rank)
    return var.value / leading


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
    terms, factors = _model_terms(cov, lattice, q)
    k4, exact = _kappa4(q, *terms)
    notes = []
    if not exact:
        notes.append("fourth cumulant is an upper bound, not the exact value")
    tv = None
    if factors is not None and q >= 2:
        kappas = (max(_kappa4(q, *factor)[0], 0.0) for factor in factors)
        tv = min(1.0, cq_constant(q) * math.prod(map(math.sqrt, kappas)))
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
