"""Exact chaos-calculus diagnostics on rectangular lattices.

Everything here is a deterministic function of (covariance, lattice, q):
the variance of the Hermite functional Y[q] = sum_t H_q(B_t), squared
contraction norms of its kernel, the fourth cumulant of the normalized
functional, the total-variation bound against the Gaussian, the additive
variance decomposition, gamma quotients, and the rank-reduction ratio.

Two kernels give every exact value, both from covariance's lag windows
(_lag_window), each built once per public call (_walk) for every chaos
order, variance self-check, 4-cycle and clique.  Pair sums over a window
of sizes n_j collapse to lag sums sum_z W(z) g(C(z)) with W(z) = prod_j
(n_j - |z_j|), which factor over separable blocks and split binomially
over additive ones.  The blocks (_blocks: a separable model's factors,
else the full lattice) give the fourth cumulant's diagram sums S(a, b, c)
(Peccati & Taqqu 2011, Wiener Chaos: Moments, Cumulants and Diagrams), one
record per block (_block_terms), and a model's sums are the products over
its blocks: kappa_4 Var^2 sums them over the connected 4-vertex diagrams,
edge multiplicities a, b, c with a + b + c = q.  A diagram with c = 0 is a
4-cycle, ||f (x)_a f||^2 = trace((A B)^2) with A = M^(.a), B = M^(.b)
elementwise; one with a, b, c > 0 is a generalized 4-clique.  A 1-D
block's M is symmetric Toeplitz, so its 4-cycles come from its first
column alone, row by row through the displacement recurrence of A B
(Kailath & Sayed 1995), in O(n^2) time and O(n) memory, summed by einsum
with no BLAS call whose thread count could move their bits; any other
block's take dense products of the matrix gathered from its window
(_window_matrix).  Every block is stationary on its lattice, so its
cliques are one sum over lag triples in any dimension (_lag_clique_sum),
each lag row a few forward real FFTs of the window, with no matrix
product, within one budget on that kernel's work (_clique_cost).  Every
block is persymmetric: C is even, C(z) = C(-z), and reversing the point
order (J, in axis-major order) negates every lag, so J M J = M, and J A J
= A for every elementwise power A of M.  Each kernel but the dense 4-cycle
sums one term per symmetry orbit, weighted by the orbit's size:
  - 4-cycles (_toeplitz_trace_abab): the terms P_ij P_ji of P = A B, over
    the orbits of transposition and of (i, j) -> (n-1-i, n-1-j), on the
    quarter i <= j <= n-1-i of P;
  - cliques (_lag_clique_sum): the lag triples, over the pairs {d, -d}, and
    their row terms over the exchange of d2 and d3.

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

from ._errors import ModelError, NumericalError, checked_arg
from ._gauss import orthant_excess
from .covariance import (
    ADDITIVE,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
    _checked_sizes,
    _lag_window,
    _multiplied_out,
    _window_matrix,
)
from .fieldsim import DENSE_LIMIT, LatticeSpec, _check_blocks
from .hermite import (CHAOS_ORDER, INDICATOR, hermite_coefficients, hermite_rank,
                      phi_second_moment)

#: clique budget of one block: its t(q) clique sums are taken when
#: _clique_cost(sizes, q) <= _CLIQUE_BUDGET.  It is the smallest budget
#: that keeps exact, at q <= 6, every block of at most 3 axes and
#: DENSE_LIMIT points that the earlier two kept exact (t(q) n^3 <= 1024^3
#: for a 1-D factor, t(q) N^4 <= 256^4 for any other block): a 5x5x7
#: block at q = 6 binds it.  At q = 3 and 4 it reaches 5335 points in 1-D,
#: 35x35 in 2-D and 6x6x6 in 3-D
_CLIQUE_BUDGET = 262_268_928
#: transformed points per batch of lag rows in the clique sum: rows times
#: transforms per row times the transform size
_LAG_CLIQUE_POINTS = 2**16
#: largest 1-D factor whose 4-cycles are summed, O(n^2) each
_TOEPLITZ_LIMIT = 2**15
#: factorized variances self-check against the direct lag sum on windows
#: of at most this many lags
_VAR_CHECK_LAGS = 20_000


def _walk(cov, lattice):
    """The lag windows of one public call, each built once, when first read:
    window(i) is factor i's on its block, window() the whole lattice's, a
    separable model's multiplied out from its factors'."""
    _check_blocks(cov, lattice)
    return functools.partial(_window, cov, lattice, {})


def _window(cov, lattice, built: dict, block=None):
    if block not in built:
        built[block] = (_lag_window(cov.factors[block], lattice.blocks[block]) if block is not None
                        else _lag_window(cov, lattice.all_sizes) if cov.structure != SEPARABLE
                        else _multiplied_out([_window(cov, lattice, built, i)
                                              for i in range(len(cov.factors))]))
    return built[block]


def _lag_sum(window, g) -> float:
    """sum_z W(z) g(C(z)) over the lags z of ``window`` (C, W), g elementwise.
    C is even and the lags run symmetrically about z = 0, the middle entry,
    so g is evaluated up to z = 0 and mirrored."""
    values, weights = window
    half = g(values[:values.size // 2 + 1])
    return float(np.sum(weights * np.concatenate((half, half[-2::-1]))))


# ---------------------------------------------------------------------------
# variances


def _variances(cov, lattice, q: int, window):
    """Var(Y[q]) and its parts, from the call's walk ``window``: a separable
    model's factor variances, each on its factor's block window, or an
    additive model's binomial terms (else None).  A factorized variance,
    separable or additive, is checked against the direct lag sum on windows
    of at most _VAR_CHECK_LAGS lags, to 1e-12 relative to the sum of the
    terms' magnitudes, q! sum_z W(z) |C(z)|^q: the scale of the rounding in
    either sum, and the sum itself unless odd q meets negative C."""
    fq = math.factorial(q)
    if cov.structure == SEPARABLE:
        parts = [fq * _lag_sum(window(i), lambda c: c**q) for i in range(len(cov.factors))]
        variance = math.prod(parts) / fq ** (len(parts) - 1)
    elif cov.structure == ADDITIVE:
        v1, v2 = [], []  # V(k) = k! sum over block pairs of (w K)^k; V(0) = volume^2
        for i, (v, sizes, weight) in enumerate(zip((v1, v2), lattice.blocks, cov.weights)):
            v.append(float(math.prod(sizes)) ** 2)
            v.extend(math.factorial(k) * weight**k * _lag_sum(window(i), lambda c: c**k)
                     for k in range(1, q + 1))
        parts = {k: math.comb(q, k) ** 2 * v1[k] * v2[q - k] for k in range(q + 1)}
        variance = float(sum(parts.values()))
    else:
        return fq * _lag_sum(window(), lambda c: c**q), None
    if math.prod(2 * n - 1 for n in lattice.all_sizes) <= _VAR_CHECK_LAGS:
        direct = fq * _lag_sum(window(), lambda c: c**q)
        scale = fq * _lag_sum(window(), lambda c: np.abs(c) ** q)
        if abs(variance - direct) > 1e-12 * scale:
            raise NumericalError(f"factorized variance {variance!r} disagrees with the "
                                 f"direct lag sum {direct!r}")
    return variance, parts


def variance_hermite(cov: CompositeCovariance, lattice: LatticeSpec, q: int) -> float:
    """Var(Y[q]) = q! sum over lattice pairs of C^q, exactly."""
    return _variances(cov, lattice, checked_arg("q", q, CHAOS_ORDER), _walk(cov, lattice))[0]


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
    each factorized for separable and additive models, on one walk.
    """
    coeffs = hermite_coefficients(phi)
    rank = hermite_rank(coeffs)
    if phi.kind == INDICATOR:
        return PhiVariance(value=variance_indicator(cov, lattice, phi.level),
                           rank=rank, tail_bound=0.0)
    value = sum(_chaos_terms(cov, lattice, coeffs))
    retained = sum(math.factorial(q) * coeffs[q] ** 2 for q in range(len(coeffs)))
    gap = max(0.0, float(phi_second_moment(phi) - retained))
    return PhiVariance(value=float(value), rank=rank,
                       tail_bound=gap * float(lattice.n_total) ** 2)


def _chaos_terms(cov, lattice, coeffs):
    """a_q^2 Var(Y[q]) for each chaos q from the rank on with a_q != 0, in
    order, lazily, from one walk."""
    window = _walk(cov, lattice)
    return (coeffs[q] ** 2 * _variances(cov, lattice, q, window)[0]
            for q in range(hermite_rank(coeffs), len(coeffs)) if coeffs[q] != 0.0)


def variance_indicator(cov: CompositeCovariance, lattice: LatticeSpec,
                       level: float) -> float:
    """Var(sum_t 1{B_t >= a}) for any structure: the lag sum of W(z) times
    the orthant excess P(X >= a, Y >= a) - Phibar(a)^2 of a pair with
    correlation rho = C(z), to double precision by Genz's bivariate normal
    quadrature (Genz 2004, Statistics and Computing 14), which sums the
    excess itself instead of subtracting Phibar(a)^2 from the joint
    probability.  At a = 0 it is Sheppard's asin(rho) / 2 pi."""
    _check_blocks(cov, lattice)
    return _lag_sum(_lag_window(cov, lattice.all_sizes), lambda rho: orthant_excess(level, rho))


# ---------------------------------------------------------------------------
# contraction norms


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


@functools.lru_cache
def _transform_length(m: int) -> int:
    """The smallest L >= m whose only prime factors are 2 and 3."""
    best, three = 1 << (m - 1).bit_length(), 1
    while three < best:
        best, three = min(best, three << ((m - 1) // three).bit_length()), 3 * three
    return best


def _clique_axes(sizes) -> tuple:
    """The axes the lag-triple clique sum runs over: a block's axes longer
    than one point (an axis of one point has the one lag 0 and weight 1)."""
    return tuple(n for n in sizes if n > 1) or (1,)


def _clique_cost(sizes, q: int) -> int:
    """The work of a block's t(q) lag-triple clique sums, in transformed
    points: t(q) rows 3^D prod_a L_a, over its half lag grid's rows and the
    3^D transforms of length L_a = _transform_length(3 n_a - 2) per row."""
    sizes = _clique_axes(sizes)
    rows = (math.prod(2 * n - 1 for n in sizes) + 1) // 2
    return (len(_clique_triples(q)) * rows * 3 ** len(sizes)
            * math.prod(_transform_length(3 * n - 2) for n in sizes))


@functools.lru_cache
def _clique_terms(dim: int):
    """The terms (orthant, f, g) of one lag row of the clique sum in ``dim``
    axes: on each axis the side d3 >= d2 gives the weightings (f, g) = (1,
    P) or (Q, 1) of (d2, d3) and the side d3 <= d2 gives (P, 1) or (1, Q),
    a weighting digit being 0 for 1, 1 for P and 2 for Q.  The first axis
    takes the side d3 >= d2 only, and ``orthant`` numbers the sides of the
    others (see _lag_clique_sum)."""
    sides = (((0, 1), (2, 0)), ((1, 0), (0, 2)))
    terms = []
    for orthant, signs in enumerate(itertools.product((0, 1), repeat=dim - 1)):
        for pick in itertools.product((0, 1), repeat=dim):
            f, g = zip(*(sides[s][p] for s, p in zip((0, *signs), pick)))
            terms.append((orthant, f, g))
    return terms


@functools.lru_cache(maxsize=16)
def _clique_plan(sizes):
    """What the clique sum takes from a block's sizes (_clique_axes) alone,
    shared, read only, by every call on that shape:
      - the transform lengths L_a;
      - the index z mod L_a of each window lag z in a grid of the lengths;
      - the orthant masks of the kernel spectra: z_a >= 0 on the first
        axis, z_a >= 0 or z_a <= 0 on each other, lag 0 halved on each;
      - the weight of each bin of a half-spectrum sum that is a Parseval
        inner product: 2 / prod_a L_a, halved at bin 0 and the Nyquist bin;
      - per axis, n - z and z over the window lags z, and n - max(0, d1)
        and min(0, d1) over the rows d1 of the half lag grid (P_a and Q_a
        are their minima);
      - per axis, the start n - 1 - d1 of each row's shifted window."""
    widths = tuple(2 * n - 1 for n in sizes)
    lengths = tuple(_transform_length(3 * n - 2) for n in sizes)
    wrap = np.ix_(*(np.arange(1 - n, n) % length for n, length in zip(sizes, lengths)))
    halves = []
    for n, length in zip(sizes, lengths):
        plus = np.zeros(length)
        plus[:n] = 1.0
        plus[0] = 0.5
        halves.append((plus, plus[-np.arange(length)]))  # z >= 0, z <= 0
    masks = np.stack([functools.reduce(np.multiply.outer, (halves[0][0], *(
        half[sign] for half, sign in zip(halves[1:], signs))))
        for signs in itertools.product((0, 1), repeat=len(sizes) - 1)])
    bins = np.full(lengths[-1] // 2 + 1, 2.0 / math.prod(lengths))
    bins[0] /= 2
    if lengths[-1] % 2 == 0:
        bins[-1] /= 2
    count = math.prod(widths)
    index = np.unravel_index(np.arange(count // 2, count), widths)  # row d1 at i - (n - 1)
    bounds = [(n - lag, lag, (n - np.maximum(i - (n - 1), 0)).astype(float),
               np.minimum(i - (n - 1), 0).astype(float))
              for n, i, lag in zip(sizes, index, (np.arange(1 - n, n, dtype=float) for n in sizes))]
    starts = tuple(w - 1 - i for w, i in zip(widths, index))
    return lengths, wrap, masks, bins, bounds, starts


def _lag_clique_sum(values: np.ndarray, sizes, triple) -> float:
    """S(a, b, c) = sum over point 4-tuples (i, j, k, l) of A_ij A_kl B_ik
    B_jl C_il C_jk, with A, B, C = M^(.a), M^(.b), M^(.c) on a block of
    sizes n_a, from its lag window ``values`` (axis-major, _lag_window),
    over lag triples: with j, k, l = i + d1, i + d2, i + d3 (lag vectors),

        S = sum_d W(d) al(d1) al(d3 - d2) be(d2) be(d3 - d1) ga(d3) ga(d2 - d1)

    for al, be, ga = C^a, C^b, C^c (zero outside the window) and W = prod_a
    (n_a - span_a of {0, d1, d2, d3}), the number of points i that keep all
    four in the block.  C is even, C(z) = C(-z), so negating every lag
    fixes each term: the rows d1 run over half the lag grid, the window's
    flat index from lag 0 on, each twice but d1 = 0.  For a row, u(d2) =
    be(d2) ga(d2 - d1) and v(d3) = ga(d3) be(d3 - d1), and each axis's
    factor of W splits into its sides d3_a >= d2_a and d3_a <= d2_a, lag 0
    halved between them: on the first, W_a = P_a(d3_a) + Q_a(d2_a) with
    P_a = n_a - max(max(0, d1_a), .) and Q_a = min(min(0, d1_a), .), on the
    second the same with d2 and d3 exchanged.  Multiplied out over the
    axes, a row is a sum of terms sum_{d2, d3} X(d2) Y(d3) K(d3 - d2), X =
    u and Y = v weighted by 1, P_a or Q_a per axis, and K = al on one
    orthant of d3 - d2 (_clique_terms).  By Parseval each term is a
    half-spectrum sum of conj(Y^) X^ K^ at lengths L_a >= 3 n_a - 2 made
    of 2s and 3s, so that nothing wraps around into the window: a row
    takes 3^D forward real FFTs of its weighted rows (2 3^D when b != c),
    no inverse and no matrix product, and the kernel spectra K^ are taken
    once per call.  Swapping d2 and d3 maps a term (orthant s, X = u f, Y =
    v g) to (-s, X = u g, Y = v f), and K_{-s}^ = conj(K_s^), so only the
    terms whose first axis takes d3 >= d2 are summed, each with its
    swapped twin, or twice when b = c, as then u = v.  An axis of one point
    is dropped (_clique_axes).  The rows run in batches of about
    _LAG_CLIQUE_POINTS transformed points, in buffers reused for every
    batch; each row's sum is its own, added up once at the end, so the
    batch size moves no bit."""
    sizes = _clique_axes(sizes)
    lengths, wrap, masks, bins, bounds, starts = _clique_plan(sizes)
    dim, one_side = len(sizes), triple[1] == triple[2]
    widths = tuple(2 * n - 1 for n in sizes)
    grid = values.reshape(widths)
    al, be, ga = (grid if k == 1 else grid**k for k in triple)
    wrapped = np.zeros(lengths)
    wrapped[wrap] = al
    spectra = np.fft.rfftn(wrapped * masks, lengths, axes=range(1, dim + 1))
    spectra *= bins

    def shifted(power):  # the window of power(d - d1) for row d1 at [n - 1 - d1]
        padded = np.zeros([4 * n - 3 for n in sizes])  # lag e at e + 2n - 2
        padded[tuple(slice(n - 1, 3 * n - 2) for n in sizes)] = power
        return np.lib.stride_tricks.as_strided(padded, widths * 2, padded.strides * 2)

    rows = [(be, shifted(ga))]  # u, and v when b != c
    if not one_side:
        rows.append((ga, shifted(be)))
    stack, terms, count = len(rows), _clique_terms(dim), len(starts[0])
    batch = min(count, max(1, _LAG_CLIQUE_POINTS // (stack * 3**dim * math.prod(lengths))))
    # the weighted rows, zero-padded to the lengths (numpy pads a shorter
    # row more slowly), their spectra, so that every transform runs in
    # place, and the per-axis weights P_a and Q_a
    x = np.zeros((stack, *(3,) * dim, batch, *lengths))
    f = np.empty((stack, *(3,) * dim, batch, *lengths[:-1], lengths[-1] // 2 + 1), complex)
    product = np.empty(f.shape[1 + dim:], complex)
    weights = [np.empty((2, batch, w)) for w in widths]
    sums = np.zeros(count)
    for start in range(0, count, batch):
        part = slice(start, start + batch)
        size = len(starts[0][part])
        rows_of = (slice(None),) * (1 + dim) + (slice(size),)
        xs = x[(*rows_of, *map(slice, widths))]
        for out, (power, windows) in zip(xs, rows):
            np.multiply(power, windows[tuple(i[part] for i in starts)], out=out[(0,) * dim])
        for a, ((top, lag, head, floor), pq) in enumerate(zip(bounds, weights)):
            pq = pq[:, :size]
            np.minimum(top, head[part, None], out=pq[0])  # P_a
            np.minimum(lag, floor[part, None], out=pq[1])  # Q_a
            pq = pq.reshape((2, size, *(w if b == a else 1 for b, w in enumerate(widths))))
            done, rest = (slice(None),) * (1 + a), (0,) * (dim - a - 1)  # axes before a, after
            np.multiply(xs[(*done, 0, *rest)], pq[0], out=xs[(*done, 1, *rest)])
            np.multiply(xs[(*done, 0, *rest)], pq[1], out=xs[(*done, 2, *rest)])
        fs = f[rows_of]
        np.fft.rfftn(x[rows_of], lengths, axes=range(-dim, 0), out=fs)
        prod, acc = product[:size], sums[part]
        for orthant, fx, gy in terms:
            for s in range(stack):  # (u f, v g); then (v f, u g) when b != c
                np.multiply(fs[(s, *fx)], spectra[orthant], out=prod)
                acc += np.einsum("ij,ij->i", fs[(stack - 1 - s, *gy)].reshape(size, -1).view(float),
                                 prod.reshape(size, -1).view(float))
    rows_weights = 2 * al.ravel()[count - 1:]  # al(d1), twice but at d1 = 0
    rows_weights[0] /= 2
    return float(np.einsum("i,i", rows_weights, sums)) * (2 if one_side else 1)


def _blocks(cov, lattice, window) -> list:
    """The lag windows (values, sizes) of the blocks whose diagram sums
    multiply to the model's: a separable model's factors, else the full
    lattice.  Before any window is read, each is refused past the points
    its 4-cycles take: _TOEPLITZ_LIMIT for a 1-D factor, else DENSE_LIMIT."""
    if cov.structure != SEPARABLE:
        if lattice.n_total > DENSE_LIMIT:
            raise ModelError(f"dense covariance capped at {DENSE_LIMIT} points")
        return [(window()[0], lattice.all_sizes)]
    for sizes in lattice.blocks:
        n, limit = math.prod(sizes), _TOEPLITZ_LIMIT if len(sizes) == 1 else DENSE_LIMIT
        if n > limit:
            raise ModelError(f"contraction norms are capped at {limit} points per "
                             f"factor ({n} requested)")
    return [(window(i)[0], sizes) for i, sizes in enumerate(lattice.blocks)]


def _cycle_sums(values: np.ndarray, sizes, q: int, orders) -> list:
    """trace((AB)^2) for each r in ``orders`` of the block with lag window
    ``values``: a 1-D block's from its Toeplitz column, lags 0 .. n-1, any
    other's from its dense matrix, gathered once for every order."""
    if len(sizes) == 1:
        col = values[sizes[0] - 1:]
        return [_toeplitz_trace_abab(col, q, r) for r in orders]
    matrix = _window_matrix(values, sizes)
    return [_trace_abab(matrix, q, r) for r in orders]


def _block_terms(values: np.ndarray, sizes, q: int):
    """({r: trace((AB)^2) for r = 1 .. q-1}, {t: S(t) for every clique
    triple t}) of the block with lag window ``values``, each trace computed
    once.  The clique sums are None past the budget, _clique_cost(sizes,
    q) > _CLIQUE_BUDGET."""
    orders = range(1, q // 2 + 1)
    half = dict(zip(orders, _cycle_sums(values, sizes, q, orders)))
    cliques = (None if _clique_cost(sizes, q) > _CLIQUE_BUDGET
               else {t: _lag_clique_sum(values, sizes, t) for t in _clique_triples(q)})
    return {r: half[min(r, q - r)] for r in range(1, q)}, cliques


def contraction_norm(cov: CompositeCovariance, lattice: LatticeSpec,
                     q: int, r: int) -> float:
    """||f (x)_r f||^2 for the kernel of Y[q], r in 1 .. q-1; factorizes
    over blocks."""
    q = checked_arg("q", q, CHAOS_ORDER)
    r = checked_arg("r", r, {**CHAOS_ORDER, "maximum": q - 1})
    return math.prod(_cycle_sums(values, sizes, q, [r])[0]
                     for values, sizes in _blocks(cov, lattice, _walk(cov, lattice)))


# ---------------------------------------------------------------------------
# fourth cumulant and the TV bound


def _model_terms(cov, lattice, q: int):
    """The model's (variance, norms, clique sums), plus each factor's for a
    separable model (else None): the products over its blocks' _block_terms,
    the clique sums None unless every block's fit, all from one walk.  q = 1
    has no diagram and reads no block."""
    window, separable = _walk(cov, lattice), cov.structure == SEPARABLE
    blocks = ([_block_terms(values, sizes, q) for values, sizes in _blocks(cov, lattice, window)]
              if q > 1 else [({}, {})] * (len(cov.factors) if separable else 1))
    variance, parts = _variances(cov, lattice, q, window)
    norms, sums = zip(*blocks)
    model = (variance, {r: math.prod(n[r] for n in norms) for r in range(1, q)},
             None if None in sums else {t: math.prod(s[t] for s in sums)
                                        for t in _clique_triples(q)})
    return model, [(v, *b) for v, b in zip(parts, blocks)] if separable else None


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
    q = checked_arg("q", q, CHAOS_ORDER)
    return _kappa4(q, *_model_terms(cov, lattice, q)[0])


def cq_constant(q: int) -> float:
    """The constant in front of the product-of-cumulants TV bound, q >= 2."""
    q = checked_arg("q", q, {**CHAOS_ORDER, "minimum": 2})
    s = sum(
        r * math.factorial(r) ** 2 * math.comb(q, r) ** 4
        * math.factorial(2 * q - 2 * r)
        for r in range(1, q)
    )
    return math.sqrt(4.0 * s / q)


def tv_bound(cov: CompositeCovariance, lattice: LatticeSpec, q: int) -> float:
    """d_TV(normalized Y[q], N) <= c_q prod_i sqrt(kappa_4 of factor i).

    Separable covariances only, and q >= 2; the per-factor cumulants are
    computed on the factor's own block window.  Clamped at 1 (it is a TV
    distance).
    """
    if cov.structure != SEPARABLE:
        raise ModelError("the TV bound applies to separable covariances only")
    return chaos_report(cov, lattice, checked_arg("q", q, {**CHAOS_ORDER, "minimum": 2})).tv_bound


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
    total, terms = _variances(cov, lattice, checked_arg("q", q, CHAOS_ORDER), _walk(cov, lattice))
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
    q = checked_arg("q", q, CHAOS_ORDER)
    weight = checked_arg("weight", weight, {"positive": True})
    sizes = _checked_sizes(factor, sizes)
    vol = float(math.prod(sizes))
    window = _lag_window(factor, sizes)
    return GammaQuotient(exact=weight**q * _lag_sum(window, lambda c: c**q) / vol**2,
                         surrogate=weight**q * float(np.sum(window[0]**q)) / vol)


def reduction_ratio(cov, lattice, phi) -> float:
    """Var(Y) over the leading-chaos part a_R^2 Var(Y[R]), the first of the
    chaos terms that sum a custom phi's Var(Y); always >= 1."""
    terms = _chaos_terms(cov, lattice, hermite_coefficients(phi))
    leading = next(terms)
    value = (variance_indicator(cov, lattice, phi.level) if phi.kind == INDICATOR
             else sum(terms, leading))
    return value / leading


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
    q = checked_arg("q", q, CHAOS_ORDER)
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
