"""Exact Gaussian field sampling on rectangular lattices.

Separable covariances sample through per-factor circulant embeddings (the
joint embedding spectrum is the outer product of per-factor spectra, so
nonnegativity per factor certifies the joint sampler).  Other composites
embed the full covariance into one multidimensional circulant.  If an
embedding spectrum stays negative after bounded doubling, small lattices
fall back to a dense Cholesky factor; larger ones fail loudly.

Draws are counter-based: the stream is a pure function of
(seed, replicate_id), independent of thread schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._errors import ModelError, NumericalError
from .covariance import (
    SEPARABLE,
    SPECTRUM_TOL,
    CompositeCovariance,
    composite_embedding_values,
    composite_values,
    embedding_spectrum,
)

KRONECKER_CIRCULANT = "kronecker_circulant"
FULL_CIRCULANT = "full_circulant"
DENSE_CHOLESKY = "dense_cholesky"

MAX_DOUBLINGS = 3
DENSE_LIMIT = 4096


@dataclass(frozen=True)
class LatticeSpec:
    """The observation window: one tuple of per-axis sizes per block."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(int(n) for n in b) for b in self.blocks)
        if not blocks or any(not b for b in blocks):
            raise ModelError("lattice needs at least one block with at least one axis")
        if any(n < 1 for b in blocks for n in b):
            raise ModelError("all lattice sizes must be >= 1")
        object.__setattr__(self, "blocks", blocks)

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


@dataclass(frozen=True)
class FieldSample:
    values: np.ndarray
    lattice: LatticeSpec
    seed: int
    replicate_id: int


@dataclass(frozen=True)
class Sampler:
    method: str
    cov: CompositeCovariance
    lattice: LatticeSpec
    min_eigenvalue: float
    sqrt_spectrum: Optional[np.ndarray] = None     # circulant methods
    chol_factor: Optional[np.ndarray] = None       # dense fallback


def _check_blocks(cov: CompositeCovariance, lattice: LatticeSpec):
    if lattice.block_dims != cov.blocks:
        raise ModelError(
            f"lattice block dims {lattice.block_dims} do not match "
            f"covariance blocks {cov.blocks}"
        )


def _clipped_sqrt(eig: np.ndarray):
    """Sqrt of a spectrum after clipping floating-point negatives."""
    mx = max(float(eig.max()), 1.0)
    mn = float(eig.min())
    ok = mn >= -SPECTRUM_TOL * mx
    if ok:
        return np.sqrt(np.clip(eig, 0.0, None)), mn
    return None, mn


def _lattice_points(lattice: LatticeSpec) -> np.ndarray:
    axes = [np.arange(n) for n in lattice.all_sizes]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1).astype(float)


def dense_covariance_matrix(cov: CompositeCovariance, lattice: LatticeSpec) -> np.ndarray:
    """Covariance matrix over all lattice points (n_total <= DENSE_LIMIT)."""
    if lattice.n_total > DENSE_LIMIT:
        raise ModelError(f"dense covariance capped at {DENSE_LIMIT} points")
    pts = _lattice_points(lattice)
    out = np.empty((len(pts), len(pts)))
    for i in range(0, len(pts), 256):
        chunk = pts[i : i + 256]
        out[i : i + 256] = composite_values(cov, chunk[:, None, :] - pts[None, :, :])
    return out


def _dense_factor(cov, lattice):
    matrix = dense_covariance_matrix(cov, lattice)
    try:
        return np.linalg.cholesky(matrix), float(np.linalg.eigvalsh(matrix).min())
    except np.linalg.LinAlgError:
        eig, vec = np.linalg.eigh(matrix)
        mn = float(eig.min())
        if mn < -SPECTRUM_TOL * max(float(eig.max()), 1.0):
            raise NumericalError(
                f"covariance matrix is not positive semidefinite "
                f"(min eigenvalue {mn:.3e})"
            )
        return vec * np.sqrt(np.clip(eig, 0.0, None)), mn


def build_sampler(cov: CompositeCovariance, lattice: LatticeSpec) -> Sampler:
    """Choose and precompute an exact sampling method for (cov, lattice)."""
    _check_blocks(cov, lattice)
    if cov.structure == SEPARABLE:
        spectra = []
        feasible = True
        worst = np.inf
        for factor, sizes in zip(cov.factors, lattice.blocks):
            got = None
            for doublings in range(MAX_DOUBLINGS + 1):
                try:
                    rep = embedding_spectrum(factor, sizes, doublings)
                except ModelError:
                    break  # e.g. a tabulated factor has no lags this far out
                root, mn = _clipped_sqrt(rep.eigenvalues)
                worst = min(worst, mn)
                if root is not None:
                    got = root
                    break
            if got is None:
                feasible = False
                break
            spectra.append(got)
        if feasible:
            full = spectra[0]
            for s in spectra[1:]:
                full = np.multiply.outer(full, s)
            return Sampler(
                KRONECKER_CIRCULANT, cov, lattice,
                min_eigenvalue=float(worst), sqrt_spectrum=full,
            )
    else:
        worst = np.inf
        for doublings in range(MAX_DOUBLINGS + 1):
            try:
                values = composite_embedding_values(cov, lattice.all_sizes, doublings)
            except ModelError:
                break
            eig = np.fft.fftn(values).real
            root, mn = _clipped_sqrt(eig)
            worst = min(worst, mn)
            if root is not None:
                return Sampler(
                    FULL_CIRCULANT, cov, lattice,
                    min_eigenvalue=float(mn), sqrt_spectrum=root,
                )
    if lattice.n_total > DENSE_LIMIT:
        raise NumericalError(
            f"no nonnegative circulant embedding (min eigenvalue {worst:.3e}) "
            f"and {lattice.n_total} points exceeds the dense fallback limit"
        )
    factor, mn = _dense_factor(cov, lattice)
    return Sampler(
        DENSE_CHOLESKY, cov, lattice,
        min_eigenvalue=mn, chol_factor=factor,
    )


def _replicate_rng(seed: int, replicate_id: int) -> np.random.Generator:
    # one disjoint 2^64-counter window of the Philox stream per replicate
    bits = np.random.Philox(key=int(seed) & (2**128 - 1),
                            counter=int(replicate_id) << 64)
    return np.random.Generator(bits)


def draw(sampler: Sampler, seed: int, replicate_id: int) -> FieldSample:
    """One field realization; a pure function of (seed, replicate_id)."""
    rng = _replicate_rng(seed, replicate_id)
    lattice = sampler.lattice
    if sampler.method == DENSE_CHOLESKY:
        z = rng.standard_normal(lattice.n_total)
        values = (sampler.chol_factor @ z).reshape(lattice.all_sizes)
    else:
        shape = sampler.sqrt_spectrum.shape
        m_tot = int(np.prod(shape))
        z = rng.standard_normal(2 * m_tot)
        w = (z[:m_tot] + 1j * z[m_tot:]).reshape(shape)
        field = np.fft.ifftn(sampler.sqrt_spectrum * w).real * np.sqrt(m_tot)
        values = field[tuple(slice(0, n) for n in lattice.all_sizes)].copy()
    return FieldSample(values=values, lattice=lattice, seed=int(seed),
                       replicate_id=int(replicate_id))
