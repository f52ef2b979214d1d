"""Closed-form limit theory: asymptotic variance constants, rate tables
and regime classification.

The classifier answers one question from declared model metadata: which
limit regime applies to the normalized functional when the observation
window grows.  It never verifies spectral hypotheses numerically -- for
the builtin covariance families they are established facts carried as
metadata, and the verdict records what was assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._errors import ModelError
from .chaoscalc import _DIRECT_LAG_LIMIT, _lag_window, gamma_quotient
from .covariance import (
    ADDITIVE,
    GNEITING,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
    _lag_values,
    decay_exponent,
    is_nonnegative,
    spectral_hypothesis,
    summable_at_power,
)
from .hermite import hermite_rank

CENTRAL = "central"
NONCENTRAL = "noncentral"
ADDITIVE_CONDITIONAL = "additive_conditional"
NOT_COVERED = "not_covered"


@dataclass(frozen=True)
class RegimeVerdict:
    """What limit regime applies, and why.

    ``normalization`` maps a block label to {"exponent", "log_exponent"}:
    the variance (or normalization) growth of that block carries the
    power and an optional log power.  ``bound`` lists the (label, hurst)
    factors of the product-form TV rate when one is available.
    """

    verdict: str
    citation: str
    normalization: dict
    notes: tuple
    case: Optional[int] = None
    dominant_block: Optional[int] = None
    bound: Optional[tuple] = None


# ---------------------------------------------------------------------------
# asymptotic variance of the short-range (Breuer-Major) limit


@dataclass(frozen=True)
class Sigma2:
    """Limiting variance density with a truncation-tail estimate."""

    value: float
    tail_estimate: float
    radius: int


def _tail_estimate(factor: FactorCovariance, radius: int, q: int) -> float:
    """Order-of-magnitude estimate of the lag sum dropped beyond the box."""
    s = decay_exponent(factor)
    if s is None:
        raise ModelError("tabulated factors carry no decay metadata")
    if not math.isfinite(s):
        return 0.0
    d = factor.dim
    if s * q <= d:
        return math.inf
    edge = abs(float(_lag_values(factor, np.array([[radius] + [0] * (d - 1)],
                                                  dtype=float))[0]))
    return 2.0**d * d * edge**q * radius**d / (s * q - d)


def breuer_major_sigma2(factors, coefficients, radius: int = 1000) -> Sigma2:
    """sigma^2 = sum_{q >= R} a_q^2 q! prod_i sum_{|z| <= radius} C_i(z)^q.

    Every factor must be summable at the rank R of the coefficients;
    otherwise the defining series diverges and the factor is named in the
    error.
    """
    factors = tuple(factors)
    coeffs = np.asarray(coefficients, dtype=float)
    rank = hermite_rank(coeffs)
    for i, factor in enumerate(factors):
        ok = summable_at_power(factor, rank)
        if ok is None:
            raise ModelError(
                f"factor {i} ({factor.family}) carries no decay metadata"
            )
        if not ok:
            raise ModelError(
                f"factor {i} ({factor.family}) is not summable at power "
                f"{rank}: the limiting variance diverges"
            )
    boxes = []  # C(z) for |z_j| <= radius: the lags of a (radius + 1)-point window
    for factor in factors:
        count = (2 * radius + 1) ** factor.dim
        if count > _DIRECT_LAG_LIMIT:
            raise ModelError(
                f"lag box with {count} points is too large; reduce the radius"
            )
        boxes.append(_lag_window(factor, (radius + 1,) * factor.dim)[0])
    value = 0.0
    tail = 0.0
    for q in range(rank, len(coeffs)):
        if coeffs[q] == 0.0:
            continue
        sums = [float(np.sum(box**q)) for box in boxes]
        tails = [_tail_estimate(f, radius, q) for f in factors]
        prod = math.prod(sums)
        value += coeffs[q] ** 2 * math.factorial(q) * prod
        err = sum(
            t * math.prod(s for j, s in enumerate(sums) if j != i)
            for i, t in enumerate(tails)
        )
        tail += coeffs[q] ** 2 * math.factorial(q) * err
    return Sigma2(value=value, tail_estimate=tail, radius=int(radius))


# ---------------------------------------------------------------------------
# the fractional-sheet rate table


def rate_g(q: int, hurst: float, n) -> float:
    """The TV convergence rate g(q, H, N) of the four-case table."""
    if q < 2:
        raise ModelError("the rate table needs q >= 2")
    b = 1.0 - 1.0 / (2 * q)
    edge = (2 * q - 3) / (2 * q - 2)
    n = float(n)
    if n <= 1.0:
        raise ModelError("the rate is defined for window sizes > 1")
    if 0.0 < hurst < 0.5:
        return n**-0.5
    if 0.5 <= hurst <= edge:
        return n ** (hurst - 1.0)
    if edge < hurst < b:
        return n ** ((2.0 * hurst * q - 2.0 * q + 1.0) / 2.0)
    if hurst == b:
        return math.log(n) ** -0.5
    raise ModelError(
        f"H = {hurst} is outside (0, {b}]: no Gaussian rate applies"
    )


def fbs_regime(alpha: float, beta: float, q: int) -> RegimeVerdict:
    """Regime row for Hermite variations of a fractional sheet (N x M)."""
    if q < 2:
        raise ModelError("the regime table needs q >= 2")
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ModelError("hurst exponents must lie in (0, 1)")
    b = 1.0 - 1.0 / (2 * q)

    def side(h):
        if h < b:
            return {"exponent": h * q - 0.5, "log_exponent": 0.0}
        if h == b:
            return {"exponent": q - 1.0, "log_exponent": -0.5}
        return {"exponent": q - 1.0, "log_exponent": 0.0}

    normalization = {"N": side(alpha), "M": side(beta)}
    if alpha > b and beta > b:
        return RegimeVerdict(
            verdict=NONCENTRAL,
            citation="fractional-sheet-noncentral",
            normalization={},
            notes=(
                f"both exponents exceed 1 - 1/(2q) = {b}: the normalized "
                "Hermite variation converges to a non-Gaussian limit",
            ),
        )
    low = sum(h < b for h in (alpha, beta))
    eq = sum(h == b for h in (alpha, beta))
    if low == 2:
        case = 1
    elif low == 1 and eq == 1:
        case = 2
    elif eq == 2:
        case = 3
    elif low == 1:
        case = 4
    else:
        case = 5
    bound = tuple(
        (label, h) for label, h in (("N", alpha), ("M", beta)) if h <= b
    )
    return RegimeVerdict(
        verdict=CENTRAL,
        citation="fractional-sheet-rate-table",
        normalization=normalization,
        notes=(
            "normalization exponents apply to the dividing factor "
            "phi(alpha, beta, N, M); the bound lists the g-rate factors",
        ),
        case=case,
        bound=bound,
    )


# ---------------------------------------------------------------------------
# regime classification from model metadata


def _require_decay(factor: FactorCovariance, role: str) -> float:
    s = decay_exponent(factor)
    if s is None:
        raise ModelError(
            f"{role} has no decay metadata (tabulated): model is incomplete "
            "for classification"
        )
    return s


def _variance_growth(factor: FactorCovariance, rank: int) -> dict:
    """Growth exponent of the block's own Hermite-variance, with log flag."""
    s = _require_decay(factor, f"factor {factor.family}")
    d = factor.dim
    x = s * rank
    if x > d:
        return {"exponent": float(d), "log_exponent": 0.0}
    if x == d:
        return {"exponent": float(d), "log_exponent": 1.0}
    return {"exponent": 2.0 * d - x, "log_exponent": 0.0}


def _classify_separable(cov, rank) -> RegimeVerdict:
    summables = []
    for i, factor in enumerate(cov.factors):
        ok = summable_at_power(factor, rank)
        if ok is None:
            raise ModelError(
                f"factor {i} has no decay metadata: model is incomplete "
                "for classification"
            )
        summables.append(ok)
    normalization = {
        f"block{i}": _variance_growth(f, rank) for i, f in enumerate(cov.factors)
    }
    if any(summables):
        short = [i for i, ok in enumerate(summables) if ok]
        return RegimeVerdict(
            verdict=CENTRAL,
            citation="separable-short-range-reduction",
            normalization=normalization,
            notes=(
                f"factor(s) {short} are summable at rank {rank}; their "
                "marginal functionals are asymptotically Gaussian and the "
                "product model inherits the central limit",
            ),
        )
    strictly_long = all(
        _require_decay(f, f"factor {i}") * rank < f.dim
        for i, f in enumerate(cov.factors)
    )
    if not strictly_long:
        return RegimeVerdict(
            verdict=NOT_COVERED,
            citation="no-applicable-reduction",
            normalization=normalization,
            notes=(
                "some factor sits exactly at the boundary decay*rank = dim: "
                "neither the short-range nor the strictly long-range "
                "hypotheses hold",
            ),
        )
    signs = [is_nonnegative(f) for f in cov.factors]
    if rank % 2 == 1 and not all(signs):
        return RegimeVerdict(
            verdict=NOT_COVERED,
            citation="no-applicable-reduction",
            normalization=normalization,
            notes=(
                f"rank {rank} is odd and some factor takes negative values: "
                "C^rank >= 0 cannot be asserted",
            ),
        )
    if not all(spectral_hypothesis(f) for f in cov.factors):
        return RegimeVerdict(
            verdict=NOT_COVERED,
            citation="no-applicable-reduction",
            normalization=normalization,
            notes=("the spectral regularity assumption is not declared "
                   "for every factor",),
        )
    return RegimeVerdict(
        verdict=NONCENTRAL,
        citation="separable-long-range-joint",
        normalization=normalization,
        notes=(
            f"every factor is strictly long-range at rank {rank} "
            "(decay * rank < dim), covariance powers stay nonnegative, and "
            "the spectral regularity of the builtin families is taken as "
            "declared metadata",
        ),
    )


def _classify_gneiting(cov, rank, growth) -> RegimeVerdict:
    if growth is None:
        growth = (1.0, 1.0)
    growing = [i for i, g in enumerate(growth) if g > 0]
    if len(growing) != 1:
        return RegimeVerdict(
            verdict=NOT_COVERED,
            citation="no-applicable-reduction",
            normalization={},
            notes=(
                "the non-separable reduction needs exactly one growing "
                f"block; growth {tuple(growth)} declares {len(growing)}",
            ),
        )
    j = growing[0]
    factor = cov.factors[j]
    ok = summable_at_power(factor, rank)
    if ok is None:
        raise ModelError(
            f"gneiting factor {j} has no decay metadata: model is "
            "incomplete for classification"
        )
    note = (
        f"block {j} grows while the other stays fixed; along the growing "
        "block the covariance sandwiches between separable envelopes with "
        f"the same factor, so the marginal regime of factor {j} transfers"
    )
    if ok:
        return RegimeVerdict(
            verdict=CENTRAL,
            citation="gneiting-growing-block-reduction",
            normalization={f"block{j}": _variance_growth(factor, rank)},
            notes=(note,),
            dominant_block=j,
        )
    return RegimeVerdict(
        verdict=NOT_COVERED,
        citation="no-applicable-reduction",
        normalization={},
        notes=(
            note,
            f"factor {j} is not summable at rank {rank}, and the reduction "
            "only covers the short-range (Gaussian) direction",
        ),
    )


def _gamma_decay(factor, rank) -> float:
    """Decay exponent of the gamma quotient in the block's own scale."""
    s = decay_exponent(factor)
    if s is not None:
        return min(s * rank, float(factor.dim))
    # no closed form: fit the exact quotient on a dyadic ladder
    if factor.dim != 1:
        raise ModelError("numeric gamma fit is implemented for 1-D factors")
    ns = np.array([16, 32, 64, 128], dtype=float)
    gs = np.array(
        [gamma_quotient(factor, (int(n),), rank).exact for n in ns]
    )
    if np.any(gs <= 0):
        raise ModelError("gamma quotient is not positive: cannot fit decay")
    return float(-np.polyfit(np.log(ns), np.log(gs), 1)[0])


def _classify_additive(cov, rank, growth) -> RegimeVerdict:
    if growth is None:
        growth = (1.0, 1.0)
    if len(growth) != 2 or any(g <= 0 for g in growth):
        raise ModelError("additive classification needs two positive "
                         "growth exponents")
    for i, factor in enumerate(cov.factors):
        sign = is_nonnegative(factor)
        if sign is None:
            raise ModelError(
                f"additive component {i} has no sign metadata: model is "
                "incomplete for classification"
            )
        if not sign:
            return RegimeVerdict(
                verdict=NOT_COVERED,
                citation="no-applicable-reduction",
                normalization={},
                notes=(
                    f"additive component {i} takes negative values; the "
                    "dominance reduction needs nonnegative components",
                ),
            )
    rates = [
        growth[i] * _gamma_decay(factor, rank)
        for i, factor in enumerate(cov.factors)
    ]
    normalization = {
        f"block{i}": {"exponent": -rates[i], "log_exponent": 0.0}
        for i in range(2)
    }
    notes = (
        "normalization lists gamma-quotient decay exponents in the common "
        f"scale T with growth {tuple(float(g) for g in growth)}",
    )
    if math.isclose(rates[0], rates[1], rel_tol=1e-12, abs_tol=1e-12):
        return RegimeVerdict(
            verdict=NOT_COVERED,
            citation="no-applicable-reduction",
            normalization=normalization,
            notes=notes + (
                "both blocks' gamma quotients decay at the same rate: "
                "neither dominates along this growth path",
            ),
        )
    dominant = int(np.argmin(rates))
    factor = cov.factors[dominant]
    marginal = (
        "asymptotically Gaussian (summable at rank)"
        if summable_at_power(factor, rank)
        else "non-Gaussian (long-range at rank)"
    )
    return RegimeVerdict(
        verdict=ADDITIVE_CONDITIONAL,
        citation="additive-dominant-block",
        normalization=normalization,
        notes=notes + (
            f"block {dominant}'s gamma quotient decays slowest, so the "
            f"joint functional inherits that block's regime; the dominant "
            f"marginal is {marginal}",
        ),
        dominant_block=dominant,
    )


def classify(cov: CompositeCovariance, rank: int, growth=None) -> RegimeVerdict:
    """Limit-regime verdict for the functional of rank ``rank``."""
    if rank < 1:
        raise ModelError("rank must be >= 1")
    if cov.structure == SEPARABLE:
        return _classify_separable(cov, rank)
    if cov.structure == GNEITING:
        return _classify_gneiting(cov, rank, growth)
    if cov.structure == ADDITIVE:
        return _classify_additive(cov, rank, growth)
    return RegimeVerdict(
        verdict=NOT_COVERED,
        citation="no-applicable-reduction",
        normalization={},
        notes=(
            "isotropic non-separable models admit no marginal-based "
            "verdict: marginals can be Gaussian while the joint functional "
            "is not",
        ),
    )
