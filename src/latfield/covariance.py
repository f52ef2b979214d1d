"""Stationary covariance models on integer lattices.

A factor covariance lives on one coordinate block and is one of a few
parametric families (fractional Gaussian noise increments, Cauchy-type
power law, exponential, white noise) or a tabulated lag map.  A composite
covariance combines factors into the full model: a separable product, a
Gneiting-type coupling of two blocks, an additive two-block mixture, or a
single isotropic profile spanning several declared blocks.

All builtin families are normalized to value 1 at lag 0 (unit-variance
fields) and are even in the lag.  Each factor also carries the metadata
the regime classifier needs: the power-law decay exponent of the tail, a
nonnegativity flag, and whether the long-memory spectral hypothesis is
taken as granted for the family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._errors import ModelError

FGN = "fgn"
CAUCHY = "cauchy"
EXPONENTIAL = "exponential"
WHITE_NOISE = "white_noise"
TABULATED = "tabulated"

SEPARABLE = "separable"
GNEITING = "gneiting"
ADDITIVE = "additive"
ISOTROPIC = "isotropic"

_FAMILIES = (FGN, CAUCHY, EXPONENTIAL, WHITE_NOISE, TABULATED)
_STRUCTURES = (SEPARABLE, GNEITING, ADDITIVE, ISOTROPIC)

#: relative slack on an exact nonnegative embedding spectrum
SPECTRUM_TOL = 1e-10


def _require_finite(name: str, value: float):
    if not math.isfinite(value):
        raise ModelError(f"{name} must be a finite number, got {value}")


@dataclass(frozen=True)
class FactorCovariance:
    """One covariance function on a single block of ``dim`` coordinates."""

    family: str
    dim: int = 1
    hurst: Optional[float] = None        # fgn
    exponent: Optional[float] = None     # cauchy
    scale: Optional[float] = None        # exponential
    table: Optional[dict] = None         # tabulated: {lag tuple: value}

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ModelError(f"unknown covariance family {self.family!r}")
        if self.dim < 1:
            raise ModelError("dim must be a positive integer")
        if self.family == FGN:
            if self.dim != 1:
                raise ModelError("fgn factors are one-dimensional")
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ModelError("fgn requires hurst in (0, 1)")
        elif self.family == CAUCHY:
            if self.exponent is None or self.exponent <= 0.0:
                raise ModelError("cauchy requires exponent > 0")
            _require_finite("cauchy exponent", self.exponent)
        elif self.family == EXPONENTIAL:
            if self.scale is None or self.scale <= 0.0:
                raise ModelError("exponential requires scale > 0")
            _require_finite("exponential scale", self.scale)
        elif self.family == TABULATED:
            if not self.table:
                raise ModelError("tabulated requires a nonempty lag table")
            # freeze the table so the model is safely shareable
            frozen = {}
            for lag, value in self.table.items():
                key = tuple(int(c) for c in np.atleast_1d(lag))
                if len(key) != self.dim:
                    raise ModelError(
                        f"tabulated lag {key} has length {len(key)}, expected {self.dim}"
                    )
                frozen[key] = float(value)
                _require_finite(f"tabulated value at lag {key}", frozen[key])
            object.__setattr__(self, "table", frozen)


@dataclass(frozen=True)
class CompositeCovariance:
    """The full covariance on the product of the blocks.

    structure:
      * separable -- product of per-block factor values
      * gneiting  -- c2(x2) * c1(x1 * c2(x2)^(2/d1)) for factors (c1, c2)
      * additive  -- w1*k1(x1) + w2*k2(x2), weights summing to 1
      * isotropic -- a single radial profile over the whole lag vector,
        with the block layout declared separately (no product structure)
    """

    structure: str
    factors: tuple
    weights: Optional[tuple] = None      # additive only
    block_dims: Optional[tuple] = None   # isotropic only

    def __post_init__(self):
        if self.structure not in _STRUCTURES:
            raise ModelError(f"unknown structure {self.structure!r}")
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors or not all(isinstance(f, FactorCovariance) for f in factors):
            raise ModelError("factors must be a nonempty tuple of FactorCovariance")
        if self.structure == GNEITING:
            if len(factors) != 2:
                raise ModelError("gneiting takes exactly two factors (c1, c2)")
            if factors[0].family == TABULATED:
                raise ModelError(
                    "gneiting c1 must support continuous-argument evaluation; "
                    "tabulated factors do not"
                )
        if self.structure == ADDITIVE:
            if len(factors) != 2:
                raise ModelError("additive takes exactly two factors")
            if self.weights is None or len(self.weights) != 2:
                raise ModelError("additive requires weights (w1, w2)")
            w = tuple(float(x) for x in self.weights)
            if not (min(w) > 0.0 and abs(sum(w) - 1.0) <= 1e-12):  # NaN fails
                raise ModelError("additive weights must be positive and sum to 1")
            object.__setattr__(self, "weights", w)
        if self.structure == ISOTROPIC:
            if len(factors) != 1:
                raise ModelError("isotropic takes a single radial profile factor")
            if factors[0].family == TABULATED:
                raise ModelError("isotropic profile must be a closed-form family")
            if self.block_dims is None:
                raise ModelError("isotropic requires a declared block layout")
            bd = tuple(int(d) for d in self.block_dims)
            if any(d < 1 for d in bd) or sum(bd) != factors[0].dim:
                raise ModelError("isotropic block dims must be positive and sum to the profile dim")
            object.__setattr__(self, "block_dims", bd)

    @property
    def blocks(self) -> tuple:
        """Per-block dimensions."""
        if self.structure == ISOTROPIC:
            return self.block_dims
        return tuple(f.dim for f in self.factors)

    @property
    def total_dim(self) -> int:
        return sum(self.blocks)


# ---------------------------------------------------------------------------
# evaluation


def _norm_values(model: FactorCovariance, r):
    """Family value at Euclidean norm(s) ``r`` (continuous argument)."""
    r = np.abs(np.asarray(r, dtype=float))
    if model.family == FGN:
        h2 = 2.0 * model.hurst
        out = 0.5 * (np.abs(r + 1.0) ** h2 - 2.0 * r**h2 + np.abs(r - 1.0) ** h2)
    elif model.family == CAUCHY:
        out = (1.0 + r**2) ** (-model.exponent / 2.0)
    elif model.family == EXPONENTIAL:
        out = np.exp(-r / model.scale)
    elif model.family == WHITE_NOISE:
        out = np.where(r == 0.0, 1.0, 0.0)
    else:
        raise ModelError(f"{model.family} has no continuous-argument evaluation")
    return out


def _grid_vectors(axes) -> np.ndarray:
    """Every combination of the per-axis values in axis-major order, as
    float vectors: shape (len(axes[0]), ..., len(axes[-1]), len(axes))."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.astype(float) for g in grids], axis=-1)


def _lag_values(model: FactorCovariance, lags):
    """Vectorized factor evaluation; ``lags`` has shape (..., dim)."""
    lags = np.asarray(lags, dtype=float)
    if lags.shape[-1] != model.dim:
        raise ModelError(f"lag length {lags.shape[-1]} != dim {model.dim}")
    if model.family == TABULATED:
        flat = lags.reshape(-1, model.dim)
        out = np.empty(len(flat))
        for i, row in enumerate(flat):
            key = tuple(int(c) for c in row)
            if key in model.table:
                out[i] = model.table[key]
            elif tuple(-c for c in key) in model.table:
                out[i] = model.table[tuple(-c for c in key)]
            else:
                raise ModelError(f"tabulated covariance has no entry for lag {key}")
        return out.reshape(lags.shape[:-1])
    return _norm_values(model, np.sqrt(np.sum(lags**2, axis=-1)))


def eval_factor(model: FactorCovariance, lag) -> float:
    """Covariance value of one factor at an integer lag vector."""
    lag = np.atleast_1d(np.asarray(lag, dtype=float))
    if lag.shape != (model.dim,):
        raise ModelError(f"lag {tuple(lag)} has length {lag.size}, expected {model.dim}")
    return float(_lag_values(model, lag))


def _split_blocks(cov: CompositeCovariance, lag):
    lag = np.atleast_1d(np.asarray(lag, dtype=float))
    if lag.size != cov.total_dim:
        raise ModelError(f"lag length {lag.size} != total dim {cov.total_dim}")
    parts, k = [], 0
    for d in cov.blocks:
        parts.append(lag[k : k + d])
        k += d
    return parts


def composite_values(cov: CompositeCovariance, lags):
    """Vectorized composite evaluation; ``lags`` has shape (..., total_dim)."""
    lags = np.asarray(lags, dtype=float)
    if lags.shape[-1] != cov.total_dim:
        raise ModelError(f"lag length {lags.shape[-1]} != total dim {cov.total_dim}")
    if cov.structure == SEPARABLE:
        out = np.ones(lags.shape[:-1])
        k = 0
        for f in cov.factors:
            out = out * _lag_values(f, lags[..., k : k + f.dim])
            k += f.dim
        return out
    if cov.structure == GNEITING:
        c1, c2 = cov.factors
        x1 = lags[..., : c1.dim]
        c2v = _lag_values(c2, lags[..., c1.dim :])
        r1 = np.sqrt(np.sum(x1**2, axis=-1))
        return c2v * _norm_values(c1, r1 * c2v ** (2.0 / c1.dim))
    if cov.structure == ADDITIVE:
        k1, k2 = cov.factors
        w1, w2 = cov.weights
        return w1 * _lag_values(k1, lags[..., : k1.dim]) + w2 * _lag_values(
            k2, lags[..., k1.dim :]
        )
    return _norm_values(cov.factors[0], np.sqrt(np.sum(lags**2, axis=-1)))


def eval_composite(cov: CompositeCovariance, lag) -> float:
    """Full covariance value at an integer lag vector of length total_dim."""
    lag = np.atleast_1d(np.asarray(lag, dtype=float))
    if lag.size != cov.total_dim:
        raise ModelError(f"lag length {lag.size} != total dim {cov.total_dim}")
    return float(composite_values(cov, lag))


def gneiting_sandwich(cov: CompositeCovariance, lag, domain_diameter2: float):
    """Separable lower/upper envelope of a Gneiting composite at one lag.

    ``domain_diameter2`` is the diameter of the block-2 observation window;
    the upper envelope rescales the block-1 argument by the smallest block-2
    value reachable within that window.  Guarantees
    lower <= eval_composite <= upper.
    """
    if cov.structure != GNEITING:
        raise ModelError("gneiting_sandwich requires a gneiting composite")
    c1, c2 = cov.factors
    x1, x2 = _split_blocks(cov, lag)
    c2v = float(_lag_values(c2, x2))
    c2_floor = float(_norm_values(c2, float(domain_diameter2)))
    r1 = np.linalg.norm(x1)
    lower = c2v * float(_norm_values(c1, r1))
    upper = c2v * float(_norm_values(c1, r1 * c2_floor ** (2.0 / c1.dim)))
    return lower, upper


# ---------------------------------------------------------------------------
# circulant embedding spectra


def embedded_sizes(sizes, doublings: int = 0) -> tuple:
    """Per-axis circulant embedding sizes: 2(n-1), doubled ``doublings`` times."""
    return tuple(1 if int(n) <= 1 else 2 * (int(n) - 1) * 2**doublings for n in sizes)


def _wrapped_lag_grid(sizes, doublings: int):
    """Lag vectors of a circulant embedding grid, each axis wrapped to
    |z| = min(k, m-k)."""
    return _grid_vectors([np.minimum(np.arange(m), m - np.arange(m))
                          for m in embedded_sizes(sizes, doublings)])


def nonnegative_spectrum(eigenvalues: np.ndarray) -> bool:
    """Whether an embedding spectrum is nonnegative up to SPECTRUM_TOL
    relative slack: the certificate that circulant sampling is exact."""
    mx = max(float(np.max(eigenvalues)), 1.0)
    return float(np.min(eigenvalues)) >= -SPECTRUM_TOL * mx


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    min_eigenvalue: float
    embedded_shape: tuple

    @property
    def nonnegative(self) -> bool:
        return nonnegative_spectrum(self.eigenvalues)


def embedding_spectrum(model: FactorCovariance, sizes, doublings: int = 0) -> SpectrumReport:
    """Discrete Fourier spectrum of the circulant embedding of one factor.

    A nonnegative minimum eigenvalue certifies that FFT sampling of this
    factor on the given grid is exact.  A negative minimum is an outcome,
    not an error.
    """
    if any(int(n) < 1 for n in sizes):
        raise ModelError("sizes must be positive")
    if len(sizes) != model.dim:
        raise ModelError(f"got {len(sizes)} sizes for a dim-{model.dim} factor")
    eig = np.fft.fftn(_lag_values(model, _wrapped_lag_grid(sizes, doublings))).real
    return SpectrumReport(
        eigenvalues=eig,
        min_eigenvalue=float(eig.min()),
        embedded_shape=eig.shape,
    )


def composite_embedding_values(cov: CompositeCovariance, sizes, doublings: int = 0):
    """Composite covariance on the wrapped embedding grid of all axes."""
    return composite_values(cov, _wrapped_lag_grid(sizes, doublings))


# ---------------------------------------------------------------------------
# classifier metadata


def decay_exponent(model: FactorCovariance) -> Optional[float]:
    """Power-law tail exponent: |C(z)| ~ |z|^(-b).  inf for summable tails."""
    if model.family == FGN:
        return np.inf if model.hurst == 0.5 else 2.0 - 2.0 * model.hurst
    if model.family == CAUCHY:
        return model.exponent
    if model.family in (EXPONENTIAL, WHITE_NOISE):
        return np.inf
    return None  # tabulated: unknown


def is_nonnegative(model: FactorCovariance) -> Optional[bool]:
    if model.family == FGN:
        return model.hurst >= 0.5
    if model.family in (CAUCHY, EXPONENTIAL, WHITE_NOISE):
        return True
    return None


def spectral_hypothesis(model: FactorCovariance) -> Optional[bool]:
    """Whether the regular-variation spectral condition is granted as metadata.

    It cannot be checked from lag-domain values; for the builtin power-law
    families in their long-memory range it is taken as given, consistent
    with how those families are used as worked examples.
    """
    if model.family == FGN:
        return model.hurst > 0.5
    if model.family == CAUCHY:
        return True
    if model.family in (EXPONENTIAL, WHITE_NOISE):
        return True
    return None


def summable_at_power(model: FactorCovariance, power: int) -> Optional[bool]:
    """True when sum over the block lattice of |C|^power converges."""
    b = decay_exponent(model)
    if b is None:
        return None
    return bool(b * power > model.dim)
