"""Closed-form limit theory: asymptotic variance constants, rate tables
and regime classification.

The classifier answers one question from declared model metadata: which
limit regime applies to the normalized functional when the observation
window grows.  It never verifies spectral hypotheses numerically -- for
the builtin covariance families they are established facts carried as
metadata, and the verdict records what was assumed.

Every verdict reduces to one block's marginal, decided by one rule: the
block's tail exponent times the rank, x, against its dimension d.  The
block is short-range (sum |C|^rank converges) when x > d, the boundary
when x is within 1e-12 of d, and strictly long-range when x < d.  The
separable, Gneiting and additive verdicts, each block's variance growth,
the additive gamma rates and ``breuer_major_sigma2`` all read that rule,
and ``checked_growth`` is the one rule for the per-block growth exponents
a verdict along a growth path reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._errors import COUNT, ModelError, checked_arg, checked_number, checked_numbers, refuse
from .covariance import (
    ADDITIVE,
    GNEITING,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
    _lag_window,
    decay_exponent,
    eval_factor,
    is_nonnegative,
)
from .hermite import CHAOS_ORDER, hermite_rank

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
# the marginal rule: a block's tail exponent times the rank against its dimension

SHORT, BOUNDARY, LONG = "short-range", "boundary", "strictly long-range"


def _tied(a: float, b: float) -> bool:
    """Whether two exponents are one: the classifier's one tolerance."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _marginal(factor: FactorCovariance, rank: int, block: str):
    """(x, d): the tail exponent of ``factor`` times ``rank``, and its
    dimension; ModelError naming ``block`` when it has no decay metadata."""
    s = decay_exponent(factor)
    if s is None:
        raise ModelError(f"{block} has no decay metadata: model is incomplete "
                         "for classification")
    return s * rank, factor.dim


def _regime(x: float, d: int) -> str:
    """SHORT when sum |C|^rank converges over the block (x > d), BOUNDARY at
    x = d, LONG when x < d."""
    if _tied(x, d):
        return BOUNDARY
    return SHORT if x > d else LONG


def checked_growth(violations, growth, covariance):
    """``growth`` as one finite exponent >= 0 per block of ``covariance``
    (None: not known), or None once each violation is added to
    ``violations``.  None stays None: every block grows at rate 1."""
    if growth is None:
        return None
    if not isinstance(growth, (list, tuple)):
        violations.append(("growth", "must be a list of per-block exponents"))
        return None
    checked = checked_numbers(violations, "growth", growth, minimum=0.0)
    if covariance is not None and len(growth) != len(covariance.blocks):
        violations.append(("growth", "must hold one exponent per covariance block, "
                                     f"got {len(growth)} for {len(covariance.blocks)}"))
        return None
    return checked


# ---------------------------------------------------------------------------
# asymptotic variance of the short-range (Breuer-Major) limit


@dataclass(frozen=True)
class Sigma2:
    """Limiting variance density with a truncation-tail estimate."""

    value: float
    tail_estimate: float
    radius: int


def _tail_estimate(factor: FactorCovariance, radius: int, q: int) -> float:
    """Order-of-magnitude estimate of the lag sum of C^q dropped beyond the
    box, for a factor short-range at power q."""
    x, d = _marginal(factor, q, "factor")
    if not math.isfinite(x):
        return 0.0
    edge = abs(eval_factor(factor, (radius,) + (0,) * (d - 1)))
    return 2.0**d * d * edge**q * radius**d / (x - d)


def breuer_major_sigma2(factors, coefficients, radius: int = 1000) -> Sigma2:
    """sigma^2 = sum_{q >= R} a_q^2 q! prod_i sum_{|z| <= radius} C_i(z)^q.

    Every factor must be short-range at the rank R of the coefficients;
    otherwise the defining series diverges and the factor is named in the
    error.  Each factor's box is its lag window, under the one lag cap.
    """
    radius = checked_arg("radius", radius, COUNT)
    factors = tuple(factors)
    coeffs = np.asarray(coefficients, dtype=float)
    rank = hermite_rank(coeffs)
    for i, factor in enumerate(factors):
        name = f"factor {i} ({factor.family})"
        try:
            x, d = _marginal(factor, rank, name)
        except ModelError:
            raise ModelError(f"{name} carries no decay metadata") from None
        if _regime(x, d) != SHORT:
            raise ModelError(f"{name} is not summable at power {rank}: the "
                             "limiting variance diverges")
    try:  # C(z) for |z_j| <= radius: the lags of a (radius + 1)-point window
        boxes = [_lag_window(factor, (radius + 1,) * factor.dim)[0] for factor in factors]
    except ModelError as exc:  # past the lag cap
        raise ModelError(f"the lag box of radius {radius}: {exc}") from None
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
    return Sigma2(value=value, tail_estimate=tail, radius=radius)


# ---------------------------------------------------------------------------
# the fractional-sheet rate table


def rate_g(q: int, hurst: float, n) -> float:
    """The TV convergence rate g(q, H, N) of the four-case table, q >= 2."""
    q = checked_arg("q", q, {**CHAOS_ORDER, "minimum": 2})
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
    raise ModelError(f"H = {hurst} is outside (0, {b}]: no Gaussian rate applies")


def fbs_regime(alpha: float, beta: float, q: int) -> RegimeVerdict:
    """Regime row for Hermite variations of a fractional sheet (N x M), q >= 2."""
    q = checked_arg("q", q, {**CHAOS_ORDER, "minimum": 2})
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


def _not_covered(*notes, normalization=None) -> RegimeVerdict:
    return RegimeVerdict(verdict=NOT_COVERED, citation="no-applicable-reduction",
                         normalization=normalization or {}, notes=notes)


def _variance_growth(x: float, d: int) -> dict:
    """Growth exponent of a block's own Hermite-variance, with log flag."""
    regime = _regime(x, d)
    if regime == LONG:
        return {"exponent": 2.0 * d - x, "log_exponent": 0.0}
    return {"exponent": float(d), "log_exponent": float(regime == BOUNDARY)}


def _classify_separable(cov, rank) -> RegimeVerdict:
    marginals = [_marginal(f, rank, f"factor {i}") for i, f in enumerate(cov.factors)]
    regimes = [_regime(x, d) for x, d in marginals]
    normalization = {f"block{i}": _variance_growth(x, d) for i, (x, d) in enumerate(marginals)}
    if SHORT in regimes:
        short = [i for i, regime in enumerate(regimes) if regime == SHORT]
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
    if BOUNDARY in regimes:
        return _not_covered(
            "some factor sits exactly at the boundary decay*rank = dim: "
            "neither the short-range nor the strictly long-range "
            "hypotheses hold",
            normalization=normalization,
        )
    # every strictly long-range factor (fgn with H > 1/2, cauchy with
    # exponent * rank < dim) is nonnegative, and its family declares the
    # spectral hypothesis
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
    growing = [i for i, g in enumerate(growth) if g > 0]
    if len(growing) != 1:
        return _not_covered(
            "the non-separable reduction needs exactly one growing "
            f"block; growth {growth} declares {len(growing)}"
        )
    j = growing[0]
    x, d = _marginal(cov.factors[j], rank, f"factor {j}")
    note = (
        f"block {j} grows while the other stays fixed; along the growing "
        "block the covariance sandwiches between separable envelopes with "
        f"the same factor, so the marginal regime of factor {j} transfers"
    )
    if _regime(x, d) == SHORT:
        return RegimeVerdict(
            verdict=CENTRAL,
            citation="gneiting-growing-block-reduction",
            normalization={f"block{j}": _variance_growth(x, d)},
            notes=(note,),
            dominant_block=j,
        )
    return _not_covered(
        note,
        f"factor {j} is not summable at rank {rank}, and the reduction "
        "only covers the short-range (Gaussian) direction",
    )


_MARGINAL_LIMIT = {
    SHORT: "asymptotically Gaussian (summable at rank)",
    BOUNDARY: "at the boundary decay * rank = dim (log-divergent at rank)",
    LONG: "non-Gaussian (long-range at rank)",
}


def _classify_additive(cov, rank, growth) -> RegimeVerdict:
    if any(g <= 0 for g in growth):
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
            return _not_covered(
                f"additive component {i} takes negative values; the "
                "dominance reduction needs nonnegative components"
            )
    marginals = [_marginal(f, rank, f"factor {i}") for i, f in enumerate(cov.factors)]
    regimes = [_regime(x, d) for x, d in marginals]
    # the gamma quotient of a block decays at T^-min(x, d) in its own scale
    rates = [g * (x if regime == LONG else d)
             for g, (x, d), regime in zip(growth, marginals, regimes)]
    normalization = {
        f"block{i}": {"exponent": -rate, "log_exponent": 0.0}
        for i, rate in enumerate(rates)
    }
    notes = (
        "normalization lists gamma-quotient decay exponents in the common "
        f"scale T with growth {growth}",
    )
    if _tied(*rates):
        return _not_covered(
            *notes,
            "both blocks' gamma quotients decay at the same rate: "
            "neither dominates along this growth path",
            normalization=normalization,
        )
    dominant = int(np.argmin(rates))
    return RegimeVerdict(
        verdict=ADDITIVE_CONDITIONAL,
        citation="additive-dominant-block",
        normalization=normalization,
        notes=notes + (
            f"block {dominant}'s gamma quotient decays slowest, so the "
            f"joint functional inherits that block's regime; the dominant "
            f"marginal is {_MARGINAL_LIMIT[regimes[dominant]]}",
        ),
        dominant_block=dominant,
    )


def classify(cov: CompositeCovariance, rank: int, growth=None) -> RegimeVerdict:
    """Limit-regime verdict for the functional of rank ``rank``; ``growth``
    holds each block's growth exponent (None: every block at rate 1)."""
    violations = []
    rank = checked_number(violations, "rank", rank, **CHAOS_ORDER)
    growth = checked_growth(violations, growth, cov)
    refuse(violations)
    if growth is None:
        growth = (1.0,) * len(cov.blocks)
    if cov.structure == SEPARABLE:
        return _classify_separable(cov, rank)
    if cov.structure == GNEITING:
        return _classify_gneiting(cov, rank, growth)
    if cov.structure == ADDITIVE:
        return _classify_additive(cov, rank, growth)
    return _not_covered(
        "isotropic non-separable models admit no marginal-based "
        "verdict: marginals can be Gaussian while the joint functional "
        "is not"
    )
