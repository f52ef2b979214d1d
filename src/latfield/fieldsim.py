"""Exact Gaussian field sampling on rectangular lattices.

Separable covariances sample through per-factor circulant embeddings (the
joint embedding spectrum is the outer product of per-factor spectra, so
nonnegativity per factor certifies the joint sampler).  An additive
covariance w1*C1(x1) + w2*C2(x2) is the law of sqrt(w1)*U(x1) +
sqrt(w2)*V(x2) for independent stationary U and V, so it samples each
block through its own embedding; the sample carries the two block fields
and builds their broadcast sum over the lattice only when its values are
first read (functionals sums a pure Hermite functional from the block
fields alone).
Only Gneiting and isotropic models embed the full covariance into one
multidimensional circulant.  If an embedding spectrum stays negative after
bounded doubling, small lattices fall back to a dense Cholesky factor of
the covariance matrix, gathered from the covariance's lag window; larger
ones fail loudly.

Draws are counter-based: each field is a pure function of
(seed, replicate_id), independent of thread schedule.  Draws come in
replicate pairs: replicates 2k and 2k+1 are the real and imaginary halves
of pair k's plane, drawn from the Philox window keyed by (seed, k).  A
circulant plane is the transform of the window's normals, whose two parts
are independent exact fields (Wood & Chan 1994; Dietrich & Newsam 1997);
a dense plane holds the dense factor times the window's first n normals
and times the next n.  Each thread reuses one generator, reset to each
window it reads, and one workspace: a cache-sized chunk of normals and a
stack of planes, one per pair of a block of consecutive pairs.
``draw_pairs`` streams each circulant window through the chunk, scaling
each chunk by its stretch of the spectrum root straight into the plane's
real part and then its imaginary part, and inverts the stack in place, one
axis at a time over all planes, cropping each axis to the lattice as soon
as it is transformed; the workspace remembers which pairs it holds, so
``draw`` serves every replicate of the block with no normals and no
transform.  A draw of a pair the workspace does not hold is the block of
one; ``Sampler.block_pairs`` is the block to ask for.  Values do not
depend on the block, the thread count or the order in which halves are
drawn: a circulant value is bit-identical to the one-shot ``ifftn``.
Seeds are ints in [0, SEED_LIMIT) and replicate ids ints >= 0; any other,
a bool or a fraction too, is a keyed ModelError.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
# numpy loads these on first use; load them with the package so the first
# sampler build and draw of a run do not pay for it
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from ._errors import (COUNT, POSITIVE_COUNT, ModelError, NumericalError, checked_arg,
                      checked_numbers, is_sequence, refuse)
from .covariance import (
    ADDITIVE,
    SEPARABLE,
    CompositeCovariance,
    _lag_window,
    _window_matrix,
    composite_embedding_values,
    embedding_spectrum,
    nonnegative_spectrum,
)

KRONECKER_CIRCULANT = "kronecker_circulant"
ADDITIVE_CIRCULANT = "additive_circulant"
FULL_CIRCULANT = "full_circulant"
DENSE_CHOLESKY = "dense_cholesky"

MAX_DOUBLINGS = 3
DENSE_LIMIT = 4096

#: normals per chunk of a pair's stream: the chunk stays in cache while it
#: is scaled into the stack
_CHUNK = 2**13

#: complex embedding points one block of replicate pairs may hold in a
#: thread's workspace (512 KiB); a pair larger than this is a block alone
_BLOCK_POINTS = 2**15

#: seeds are integers in [0, SEED_LIMIT): the low word of the Philox key
SEED_LIMIT = 2**64
SEED = {"kind": int, "minimum": 0, "maximum": SEED_LIMIT - 1}

_local = threading.local()  # this thread's generator and draw buffers


@dataclass(frozen=True)
class LatticeSpec:
    """The observation window: one tuple of per-axis sizes per block."""

    blocks: tuple

    def __post_init__(self):
        if not is_sequence(self.blocks):
            raise ModelError(f"lattice blocks {self.blocks!r}: expected a sequence of blocks")
        if not self.blocks:
            raise ModelError("lattice needs at least one block with at least one axis")
        violations, blocks = [], []
        for i, block in enumerate(self.blocks):
            if is_sequence(block) and len(block):
                blocks.append(checked_numbers(violations, f"[{i}]", block, **POSITIVE_COUNT))
            else:
                violations.append((f"[{i}]", f"must be a nonempty sequence of sizes, "
                                             f"got {block!r}"))
        refuse(violations)
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def block_dims(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    @property
    def all_sizes(self) -> tuple:
        return tuple(n for b in self.blocks for n in b)

    @property
    def n_total(self) -> int:
        return int(math.prod(self.all_sizes))

    def block_axes(self, i: int) -> tuple:
        """Axis indices of block i in the flattened axis order."""
        start = sum(len(b) for b in self.blocks[:i])
        return tuple(range(start, start + len(self.blocks[i])))


class FieldSample:
    """One field realization on ``lattice``, drawn as replicate
    ``replicate_id`` of ``seed``.

    ``values`` is the field at every lattice point, shaped
    ``lattice.all_sizes``.  An additive draw carries ``blocks``, its two
    block fields sqrt(w1)*U and sqrt(w2)*V, each shaped like its block,
    and ``weights`` (w1, w2); it builds ``values`` from them by
    broadcasting on first read, so a functional that needs only the block
    fields never builds the lattice field.  Every other draw, and any
    sample built from ``values``, has ``blocks`` None.
    """

    __slots__ = ("_values", "lattice", "seed", "replicate_id", "blocks", "weights")

    def __init__(self, values, lattice, seed, replicate_id, blocks=None, weights=None):
        if (values is None) == (blocks is None):
            raise ModelError("a field sample takes either values or block fields")
        self._values = values
        self.lattice = lattice
        self.seed = seed
        self.replicate_id = replicate_id
        self.blocks = blocks
        self.weights = weights

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            # each block's field broadcast over the other block
            u, v = self.blocks
            self._values = u.reshape(u.shape + (1,) * v.ndim) + v
        return self._values


@dataclass(frozen=True)
class Embedding:
    """One circulant embedding a sampler draws from: its grid shape, the
    doublings past the minimal 2(n-1) per axis, and the minimum eigenvalue
    of its (nonnegative) spectrum."""

    shape: tuple
    doublings: int
    min_eigenvalue: float


@dataclass(frozen=True)
class Sampler:
    method: str
    lattice: LatticeSpec
    min_eigenvalue: float                          # least over embeddings, or dense matrix
    embeddings: tuple = ()                         # circulant methods: Embedding records
    # circulant methods; additive: the blocks' roots times sqrt(w_i), raveled
    # and laid end to end
    sqrt_spectrum: Optional[np.ndarray] = None
    chol_factor: Optional[np.ndarray] = None       # dense fallback
    weights: Optional[tuple] = None                # additive: (w1, w2)

    @property
    def block_pairs(self) -> int:
        """Replicate pairs per block: as many as fit in _BLOCK_POINTS, at
        least one.  A pair holds the embedding's points (dense: n_total)."""
        points = (self.sqrt_spectrum.size if self.sqrt_spectrum is not None
                  else self.lattice.n_total)
        return max(1, _BLOCK_POINTS // points)


def _check_blocks(cov: CompositeCovariance, lattice: LatticeSpec):
    if lattice.block_dims != cov.blocks:
        raise ModelError(
            f"lattice block dims {lattice.block_dims} do not match "
            f"covariance blocks {cov.blocks}"
        )


def dense_covariance_matrix(cov: CompositeCovariance, lattice: LatticeSpec) -> np.ndarray:
    """Covariance matrix over all lattice points (n_total <= DENSE_LIMIT),
    gathered from the covariance's lag window: C is evaluated once per lag."""
    if lattice.n_total > DENSE_LIMIT:
        raise ModelError(f"dense covariance capped at {DENSE_LIMIT} points")
    _check_blocks(cov, lattice)
    sizes = lattice.all_sizes
    return np.ascontiguousarray(_window_matrix(_lag_window(cov, sizes)[0], sizes))


def _dense_factor(cov, lattice):
    matrix = dense_covariance_matrix(cov, lattice)
    try:
        return np.linalg.cholesky(matrix), float(np.linalg.eigvalsh(matrix).min())
    except np.linalg.LinAlgError:
        eig, vec = np.linalg.eigh(matrix)
        if not nonnegative_spectrum(eig):
            raise NumericalError(
                f"covariance matrix is not positive semidefinite "
                f"(min eigenvalue {float(eig.min()):.3e})"
            )
        return vec * np.sqrt(np.clip(eig, 0.0, None)), float(eig.min())


def _embed(spectrum_at):
    """Square root of the first nonnegative spectrum_at(doublings) over
    doublings 0..MAX_DOUBLINGS, and its Embedding record.  Raises
    NumericalError when none is nonnegative, and the ModelError of a
    minimal embedding that cannot be built."""
    worst = np.inf
    for doublings in range(MAX_DOUBLINGS + 1):
        try:
            eig = spectrum_at(doublings)
        except ModelError:
            if doublings == 0:
                raise  # e.g. a tabulated covariance lacks a lag of the lattice
            break  # e.g. a tabulated covariance has no lags this far out
        mn = float(eig.min())
        if nonnegative_spectrum(eig):
            return np.sqrt(np.clip(eig, 0.0, None)), Embedding(eig.shape, doublings, mn)
        worst = min(worst, mn)
    raise NumericalError(f"no nonnegative circulant embedding (min eigenvalue {worst:.3e})")


def build_sampler(cov: CompositeCovariance, lattice: LatticeSpec) -> Sampler:
    """Choose and precompute an exact sampling method for (cov, lattice)."""
    _check_blocks(cov, lattice)
    if cov.structure in (SEPARABLE, ADDITIVE):  # one embedding per factor
        method = KRONECKER_CIRCULANT if cov.structure == SEPARABLE else ADDITIVE_CIRCULANT
        spectra = [lambda d, f=f, s=s: embedding_spectrum(f, s, d).eigenvalues
                   for f, s in zip(cov.factors, lattice.blocks)]
    else:
        method = FULL_CIRCULANT
        spectra = [lambda d: np.fft.fftn(
            composite_embedding_values(cov, lattice.all_sizes, d)).real]
    try:
        roots, records = zip(*map(_embed, spectra))
    except NumericalError as exc:
        if lattice.n_total > DENSE_LIMIT:
            raise NumericalError(
                f"{exc} and {lattice.n_total} points exceeds the dense fallback limit"
            ) from None
        factor, mn = _dense_factor(cov, lattice)
        return Sampler(DENSE_CHOLESKY, lattice, min_eigenvalue=mn, chol_factor=factor)
    if method == ADDITIVE_CIRCULANT:
        sqrt_spectrum = np.concatenate(
            [np.sqrt(w) * r.ravel() for w, r in zip(cov.weights, roots)])
    else:
        sqrt_spectrum = functools.reduce(np.multiply.outer, roots)
    return Sampler(
        method, lattice,
        min_eigenvalue=min(e.min_eigenvalue for e in records),
        embeddings=records,
        sqrt_spectrum=sqrt_spectrum,
        weights=cov.weights,
    )


def _replicate_rng(seed: int, window: int) -> np.random.Generator:
    """This thread's generator, set to the start of window ``window`` of the
    Philox stream keyed by ``seed`` (a checked SEED): one disjoint
    2^64-counter window per replicate pair.  Its whole state is reset (key,
    counter, buffered words and the spare 32-bit half), so it gives the
    stream of a new Philox(key=seed, counter=window << 64) whatever it read
    before.  It is valid until the thread's next call."""
    counter = window << 64
    if not 0 <= counter < 2**256:
        raise ModelError(f"replicate window {window} is outside the Philox counter")
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([(counter >> s) & (2**64 - 1) for s in (0, 64, 128, 192)],
                                dtype=np.uint64),
            "key": np.array([seed, 0], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _workspace(shape, count) -> tuple:
    """This thread's draw buffers for ``count`` pairs whose planes have the
    given shape: a chunk of _CHUNK reals that normals pass through on
    their way into the stack, and the first ``count`` planes of a stack of
    complex planes, the only buffer of a plane's size.  Kept while the
    shape matches and the stack holds ``count`` planes; otherwise dropped
    before the new buffers are allocated, so a thread never holds two
    stacks."""
    ws = getattr(_local, "buffers", None)
    if ws is None or ws[1].shape[1:] != shape or len(ws[1]) < count:
        _local.buffers = ws = None
        ws = _local.buffers = (np.empty(_CHUNK),
                               np.empty((count,) + shape, dtype=complex))
    return ws[0], ws[1][:count]


def _cropped_inverse(w: np.ndarray, sizes) -> tuple:
    """ifftn of each plane w[i] cropped to ``sizes``, as a view into w, and
    sqrt of a plane's size.  The inverse runs one axis at a time, last
    axis first as ifftn does, and each axis is cropped right after its
    transform, so every kept value gets ifftn's arithmetic.  Each axis is
    transformed into w itself, so no temporary of w's size is allocated.
    Overwrites w."""
    scale = np.sqrt(w[0].size)
    for axis in reversed(range(1, w.ndim)):
        np.fft.ifft(w, axis=axis, out=w)
        w = w[(slice(None),) * axis + (slice(0, sizes[axis - 1]),)]
    return w, scale


def draw_pairs(sampler: Sampler, seed: int, first_pair: int, count: int) -> None:
    """Draw and transform replicate pairs first_pair .. first_pair+count-1
    into this thread's workspace, so that ``draw`` serves both halves of
    each of them with no further normals or transforms.

    Pair k's plane is w = sqrt_spectrum * (z[:m] + 1j*z[m:]) for
    z = standard_normal(2m) from the pair's own window.  The window is read
    in order, _CHUNK normals at a time, and each chunk is multiplied by its
    stretch of the raveled root straight into the plane's real part (the
    first m normals) or imaginary part (the rest), so no buffer of m
    normals is needed.  The stack is then inverted once for all planes (an
    additive sampler inverts each block's stretch of the stack once).  A
    dense plane is chol_factor @ z[:n] + 1j * (chol_factor @ z[n:]), one
    matrix-vector product per half, with no transform.  The per-thread
    record of what the workspace holds is replaced."""
    seed = checked_arg("seed", seed, SEED)
    first_pair = checked_arg("first_pair", first_pair, COUNT)
    count = checked_arg("count", count, POSITIVE_COUNT)
    _local.pairs = None  # drop the views before the workspace may be replaced
    factor = sampler.chol_factor
    shape = sampler.lattice.all_sizes if factor is not None else sampler.sqrt_spectrum.shape
    chunk, w = _workspace(shape, count)
    m = math.prod(shape)
    root = sampler.sqrt_spectrum.reshape(-1) if factor is None else None
    for plane, pair in zip(w.reshape(count, m), range(first_pair, first_pair + count)):
        rng = _replicate_rng(seed, pair)
        for half in (plane.real, plane.imag):
            if factor is not None:  # n_total <= DENSE_LIMIT normals fit in the chunk
                half[:] = factor @ rng.standard_normal(out=chunk[:m])
                continue
            for lo in range(0, m, _CHUNK):
                hi = min(lo + _CHUNK, m)
                z = rng.standard_normal(out=chunk[:hi - lo])
                np.multiply(z, root[lo:hi], out=half[lo:hi])
    if factor is not None:
        transforms = ((w, 1.0),)
    elif sampler.method == ADDITIVE_CIRCULANT:
        # sqrt(w1) U (+) sqrt(w2) V: one field per block from its stretch of w
        (a, b), (n1, n2) = sampler.embeddings, sampler.lattice.blocks
        m1 = math.prod(a.shape)
        transforms = (_cropped_inverse(w[:, :m1].reshape((count,) + a.shape), n1),
                      _cropped_inverse(w[:, m1:].reshape((count,) + b.shape), n2))
    else:
        transforms = (_cropped_inverse(w, sampler.lattice.all_sizes),)
    _local.pairs = (sampler, seed, first_pair, count, transforms)


def _pair_transforms(sampler: Sampler, seed: int, pair: int) -> list:
    """The planes of replicate pair ``pair``, one per block for additive
    samplers and one in all, as (view into this thread's workspace, scale)
    tuples: a cropped complex transform and sqrt(m), or a dense plane and
    1.  The workspace is filled, as a block of one pair, only when it does
    not already hold this (sampler, seed, pair)."""
    held = getattr(_local, "pairs", None)
    if (held is None or held[0] is not sampler or held[1] != seed
            or not 0 <= pair - held[2] < held[3]):
        draw_pairs(sampler, seed, pair, 1)
        held = _local.pairs
    plane = pair - held[2]
    return [(t[plane], scale) for t, scale in held[4]]


def draw(sampler: Sampler, seed: int, replicate_id: int) -> FieldSample:
    """One field realization; a pure function of (seed, replicate_id).

    Replicate r is the real (r even) or imaginary (r odd) half of pair
    r // 2's plane, times its scale.  It is served from this thread's
    workspace when the workspace holds that pair (after ``draw_pairs``, or
    after a draw of the pair's other half); otherwise the pair is drawn as
    a block of one."""
    seed = checked_arg("seed", seed, SEED)
    replicate_id = checked_arg("replicate_id", replicate_id, COUNT)
    lattice = sampler.lattice
    pair, part = divmod(replicate_id, 2)
    # each product is a new array, so no sample aliases the workspace
    fields = tuple((t.imag if part else t.real) * scale
                   for t, scale in _pair_transforms(sampler, seed, pair))
    if sampler.method == ADDITIVE_CIRCULANT:
        return FieldSample(values=None, lattice=lattice, seed=seed,
                           replicate_id=replicate_id, blocks=fields,
                           weights=sampler.weights)
    (values,) = fields
    return FieldSample(values=values, lattice=lattice, seed=seed,
                       replicate_id=replicate_id)
