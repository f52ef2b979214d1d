"""Stationary covariance models on integer lattices.

A factor covariance lives on one coordinate block and is one of a few
parametric families (fractional Gaussian noise increments, Cauchy-type
power law, exponential, white noise) or a tabulated lag map.  A composite
covariance combines factors into the full model: a separable product, a
Gneiting-type coupling of two blocks, an additive two-block mixture, or a
single isotropic profile spanning several declared blocks.

All builtin families are normalized to value 1 at lag 0 (unit-variance
fields) and are even in the lag; a tabulated factor must be even too.  The
builtin families are also even in each lag coordinate, as the circulant
embedding grid assumes; a table of dim >= 2 need not be, and then has no
circulant embedding.  Each family's parameters and their rules are
declared once, in ``FAMILY_PARAMS``.  Each factor also carries the
metadata the regime classifier needs: the power-law decay exponent of the
tail and a nonnegativity flag; a tabulated factor carries neither, and
the classifier refuses it.  The regular-variation spectral hypothesis of
the long-memory limit is taken as granted for every closed-form family.
The lag window (_lag_window) is the one place a covariance is evaluated
over a lattice, the embedding grid aside: C once per lag, under one cap;
every dense lattice matrix is gathered from it (_window_matrix).
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._errors import (COUNT, POSITIVE_COUNT, ModelError, NumericalError, checked_number,
                      checked_numbers, is_sequence, refuse, set_params)

FGN = "fgn"
CAUCHY = "cauchy"
EXPONENTIAL = "exponential"
WHITE_NOISE = "white_noise"
TABULATED = "tabulated"

SEPARABLE = "separable"
GNEITING = "gneiting"
ADDITIVE = "additive"
ISOTROPIC = "isotropic"

#: Each family's parameters, with the ``check_number`` rule of each (None:
#: the lag table of a tabulated factor).  A factor requires its family's
#: parameters and refuses the others; the config parser and the config
#: document read the same table.
FAMILY_PARAMS = {
    FGN: {"hurst": {"between": (0.0, 1.0)}},
    CAUCHY: {"exponent": {"positive": True}},
    EXPONENTIAL: {"scale": {"positive": True}},
    WHITE_NOISE: {},
    TABULATED: {"table": None},
}

_STRUCTURES = (SEPARABLE, GNEITING, ADDITIVE, ISOTROPIC)

#: relative slack on an exact nonnegative embedding spectrum
SPECTRUM_TOL = 1e-10


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
        if not isinstance(self.family, str) or self.family not in FAMILY_PARAMS:
            raise ModelError(f"unknown covariance family {self.family!r}")
        violations = []
        dim = checked_number(violations, "dim", self.dim, **POSITIVE_COUNT)
        object.__setattr__(self, "dim", dim)  # None only on a model that is refused
        violations += set_params(self, FAMILY_PARAMS, self.family, f"family {self.family!r}")
        if self.family == FGN and dim not in (None, 1):
            violations.append(("", "fgn factors are one-dimensional"))
        if self.family == TABULATED and self.table is not None:
            self._freeze_table(dim, violations)
        refuse(violations)

    def _freeze_table(self, dim, violations):
        """Store the lag table as {tuple of ints: float}, so the model is
        safely shareable, adding the violation of each lag or value that
        does not pass, of a lag of the wrong length, and of an uneven table."""
        if not isinstance(self.table, Mapping) or not self.table:
            violations.append(("", "tabulated requires a nonempty lag table"))
            return
        frozen = {}
        for lag, value in self.table.items():
            lag = lag if isinstance(lag, tuple) else (lag,)
            key = tuple(checked_number(violations, f"table[{lag}]", c, kind=int) for c in lag)
            value = checked_number(violations, f"table[{lag}]", value)
            if None in key or value is None:
                continue
            if dim is not None and len(key) != dim:
                violations.append(("", f"tabulated lag {key} has length {len(key)}, "
                                       f"expected {dim}"))
                continue
            frozen[key] = value
        for key, value in frozen.items():
            mirror = tuple(-c for c in key)
            if key > mirror and frozen.get(mirror, value) != value:  # each pair once
                violations.append(("", f"a tabulated covariance must be even, but it holds "
                                       f"{value} at lag {key} and {frozen[mirror]} "
                                       f"at lag {mirror}"))
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
        violations = []
        factors = self.factors
        if (not is_sequence(factors) or not len(factors)
                or not all(isinstance(f, FactorCovariance) for f in factors)):
            violations.append(("factors", "must be a nonempty tuple of FactorCovariance"))
            factors = None
        else:
            factors = tuple(factors)
            object.__setattr__(self, "factors", factors)
            rule = self._factor_rule(factors)
            if rule:
                violations.append(("", rule))
                factors = None
        weights = self._numbers("weights", ADDITIVE, "only additive structures take weights",
                                "must be a list of two numbers", violations,
                                size=2, positive=True)
        if weights is not None and abs(sum(weights) - 1.0) > 1e-12:
            violations.append(("weights", f"must sum to 1, got {sum(weights)}"))
        dims = self._numbers("block_dims", ISOTROPIC,
                             "only isotropic structures declare block dims",
                             "must be a nonempty list", violations, **POSITIVE_COUNT)
        if None not in (factors, dims) and sum(dims) != factors[0].dim:
            violations.append(("block_dims", f"must sum to the profile dim "
                                             f"{factors[0].dim}, got {sum(dims)}"))
        refuse(violations)

    def _factor_rule(self, factors) -> Optional[str]:
        """The rule of the structure that ``factors`` break, if any."""
        if self.structure == GNEITING:
            if len(factors) != 2:
                return "gneiting takes exactly two factors (c1, c2)"
            if factors[0].family == TABULATED:
                return ("gneiting c1 must support continuous-argument evaluation; "
                        "tabulated factors do not")
        if self.structure == ADDITIVE and len(factors) != 2:
            return "additive takes exactly two factors"
        if self.structure == ISOTROPIC:
            if len(factors) != 1:
                return "isotropic takes a single radial profile factor"
            if factors[0].family == TABULATED:
                return "isotropic profile must be a closed-form family"
        return None

    def _numbers(self, name, structure, stray, shape, violations, size=None, **rule):
        """The field ``name``, which ``structure`` requires and any other
        structure refuses with ``stray``, as a tuple of numbers that pass
        ``rule``, stored on the model; None once its violations are added:
        ``shape`` when it is not a nonempty sequence (of ``size`` numbers,
        when given)."""
        values = getattr(self, name)
        if self.structure != structure:
            if values is not None:
                violations.append((name, stray))
            return None
        if values is None:
            violations.append((name, "missing required key"))
            return None
        if not is_sequence(values) or not len(values) or size not in (None, len(values)):
            violations.append((name, shape))
            return None
        values = checked_numbers(violations, name, values, **rule)
        object.__setattr__(self, name, values)
        return values

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
    out = np.empty([len(a) for a in axes] + [len(axes)])
    for j, a in enumerate(axes):
        out[..., j] = np.reshape(a, [-1 if k == j else 1 for k in range(len(axes))])
    return out


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


#: the most lags a window may hold: 128 MB for its covariance values
_DIRECT_LAG_LIMIT = 2**24


def _lag_window(model, sizes):
    """(C(z), W(z)) over every lag z of a window of sizes n_j, in axis-major
    order: ``model``'s covariance (a factor or a composite), evaluated once
    per lag, and the pair weight W(z) = prod_j (n_j - |z_j|); ModelError
    past _DIRECT_LAG_LIMIT lags, before anything is allocated.  A separable
    model's C and W are the outer products of its factors' own windows,
    the same bits as composite_values on the whole lag grid."""
    count = math.prod(2 * n - 1 for n in sizes)
    if count > _DIRECT_LAG_LIMIT:
        raise ModelError(f"a lag window of {count} lags exceeds the cap of "
                         f"{_DIRECT_LAG_LIMIT}; use a factorized structure or a smaller window")
    if isinstance(model, CompositeCovariance) and model.structure == SEPARABLE:
        ends = itertools.accumulate(f.dim for f in model.factors)
        return _multiplied_out([_lag_window(f, sizes[end - f.dim:end])
                                for f, end in zip(model.factors, ends)])
    axes = [np.arange(1 - n, n, dtype=float) for n in sizes]
    weights = functools.reduce(np.multiply.outer, [n - np.abs(ax) for n, ax in zip(sizes, axes)])
    evaluate = _lag_values if isinstance(model, FactorCovariance) else composite_values
    return evaluate(model, _grid_vectors(axes).reshape(-1, len(sizes))), weights.ravel()


def _multiplied_out(parts):
    """A separable model's (C, W) window from its factors' own windows: the
    outer products of their C and of their W, in axis-major order."""
    return tuple(functools.reduce(np.multiply.outer, window).ravel() for window in zip(*parts))


def _window_matrix(values, sizes) -> np.ndarray:
    """M[i, j] = C(p_i - p_j) over the N points p of a window of sizes n_j,
    axis-major, from its lag window's values C(z): a read-only view of the
    grid of lags from lag 0, forward along p_i and backward along p_j, so
    every entry's lag p_i - p_j lies inside the grid."""
    grid = np.reshape(values, [2 * n - 1 for n in sizes])
    origin = grid[tuple(slice(n - 1, None) for n in sizes)]
    steps = grid.strides + tuple(-s for s in grid.strides)
    view = np.lib.stride_tricks.as_strided(origin, (*sizes, *sizes), steps, writeable=False)
    return view.reshape(math.prod(sizes), -1)


# ---------------------------------------------------------------------------
# circulant embedding spectra


def _checked_sizes(model: FactorCovariance, sizes) -> tuple:
    """A window of ``model`` as one positive int per axis of the factor, the
    rule LatticeSpec applies to a block; else one ModelError listing every
    violation, keyed sizes[i] (sizes for the count)."""
    if not is_sequence(sizes) or len(sizes) != model.dim:
        refuse([("sizes", f"must be a sequence of {model.dim} sizes, got {sizes!r}")])
    violations = []
    sizes = checked_numbers(violations, "sizes", sizes, **POSITIVE_COUNT)
    refuse(violations)
    return sizes


def embedded_sizes(sizes, doublings: int = 0) -> tuple:
    """Per-axis circulant embedding sizes: 2(n-1), doubled ``doublings`` times."""
    violations = []
    sizes = checked_numbers(violations, "sizes", sizes, **POSITIVE_COUNT)
    doublings = checked_number(violations, "doublings", doublings, **COUNT)
    refuse(violations)
    return tuple(1 if n == 1 else 2 * (n - 1) * 2**doublings for n in sizes)


def _even_per_axis(model: FactorCovariance) -> bool:
    """Whether the factor's value stays the same when any one lag
    coordinate changes sign.  Every closed-form family depends on the lag
    norm alone, and an even 1-D table is even in its one coordinate; a
    table of dim >= 2 must hold each entry's value at the entry's
    reflection in each coordinate (a missing reflection fails)."""
    if model.family != TABULATED or model.dim == 1:
        return True
    table = model.table

    def at(lag):
        return table.get(lag, table.get(tuple(-c for c in lag)))

    return all(at(lag[:j] + (-lag[j],) + lag[j + 1:]) == value
               for lag, value in table.items() for j in range(model.dim))


def _require_even_per_axis(factors):
    """NumericalError unless every factor is even in each lag coordinate,
    as the wrapped embedding grid assumes."""
    for f in factors:
        if not _even_per_axis(f):
            raise NumericalError(
                f"a dim-{f.dim} tabulated factor that is not even in each lag "
                "coordinate has no circulant embedding: the embedding grid "
                "evaluates each axis at |z_j|"
            )


def _wrapped_lag_grid(sizes, doublings: int):
    """Lag vectors of a circulant embedding grid, each axis wrapped to
    |z| = min(k, m-k): right only for covariances even in each lag
    coordinate."""
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
    not an error.  NumericalError for a factor that is not even in each lag
    coordinate, which has no such embedding.
    """
    sizes = _checked_sizes(model, sizes)
    _require_even_per_axis((model,))
    eig = np.fft.fftn(_lag_values(model, _wrapped_lag_grid(sizes, doublings))).real
    return SpectrumReport(
        eigenvalues=eig,
        min_eigenvalue=float(eig.min()),
        embedded_shape=eig.shape,
    )


def composite_embedding_values(cov: CompositeCovariance, sizes, doublings: int = 0):
    """Composite covariance on the wrapped embedding grid of all axes;
    NumericalError for a factor that is not even in each lag coordinate."""
    _require_even_per_axis(cov.factors)
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
