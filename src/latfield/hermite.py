"""Hermite polynomials (probabilists' normalization), expansion
coefficients of a test function against the standard Gaussian, and rank
detection.

The expansion is phi(x) = sum_q a_q H_q(x) with
a_q = E[phi(N) H_q(N)] / q!, so E[H_m H_n] = delta_mn * n!.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._errors import ModelError, NumericalError, checked_arg, refuse, set_params
from ._gauss import normal_cdf

PURE = "pure"
INDICATOR = "indicator"
CUSTOM = "custom"

#: the one cap on a chaos order, and the rule of one: a pure phi's q, and
#: every q and rank the exact diagnostics, the oracle and the classifier
#: take; a Hermite order (a custom phi's qmax, a Wick monomial's) may be 0
MAX_CHAOS_ORDER = 30
CHAOS_ORDER = {"kind": int, "minimum": 1, "maximum": MAX_CHAOS_ORDER}
HERMITE_ORDER = {**CHAOS_ORDER, "minimum": 0}
#: an indicator's last coefficient order, and a custom phi's default qmax
DEFAULT_QMAX = 20
DEFAULT_TOL = 1e-12

#: Each phi kind's parameters, with the ``check_number`` rule of each
#: (None: the callable of a custom phi).  A spec requires its kind's
#: parameters and refuses the others; the config parser and the config
#: document read the same table.
KIND_PARAMS = {
    PURE: {"q": CHAOS_ORDER},
    INDICATOR: {"level": {}},
    CUSTOM: {"func": None, "qmax": HERMITE_ORDER},
}

#: Gauss-Hermite node count (doubled once for the convergence check)
_GH_NODES = 2 * DEFAULT_QMAX + 32
_GH_RTOL = 1e-8

#: the 1.0 that H_0 views with zero strides (read-only, so no caller can
#: change it); np.broadcast_to builds the same view several times slower
_ONE = np.ones(1)
_ONE.flags.writeable = False


def hermite_terms(q: int, x, buffers=None):
    """H_0(x), H_1(x), ..., H_q(x) by one pass of the three-term recurrence
    H_{k+1} = x H_k - k H_{k-1}.

    H_0 is yielded as a read-only zero-stride view of 1.0 with x's shape
    and H_1 as x itself (as a float array); neither is a copy.  H_2 on are computed in
    place in float buffers of x's shape: one for q = 2, three for q >= 3.
    Each yielded H_k (k >= 2) is a buffer that the step after next
    overwrites: read it (or copy it) before advancing twice.  ``buffers``
    is a list of such buffers to compute in; the pass appends new ones
    when it holds fewer than it needs, so a caller that keeps the list
    reuses them on its next call.  Without it every buffer is new.  Each
    step rounds as ``x * H_k - k * H_{k-1}`` does."""
    q = checked_arg("q", q, HERMITE_ORDER)
    x = np.asarray(x, dtype=float)
    yield np.ndarray(x.shape, float, _ONE, 0, (0,) * x.ndim)
    if q == 0:
        return
    yield x
    if q == 1:
        return
    buffers = [] if buffers is None else buffers
    while len(buffers) < (1 if q == 2 else 3):
        buffers.append(np.empty(x.shape))
    cur = np.multiply(x, x, out=buffers[0])
    np.subtract(cur, 1.0, out=cur)  # x H_1 - 1 H_0
    yield cur
    prev = x
    for k in range(2, q):
        # x H_k goes to the spare buffer; k H_{k-1} overwrites H_{k-1},
        # except H_1, which is x
        out = prev if k > 2 else buffers[2]
        spare = np.multiply(x, cur, out=buffers[1])
        np.multiply(prev, k, out=out)
        np.subtract(spare, out, out=out)
        prev, cur = cur, out
        yield cur


def hermite_eval(q: int, x):
    """H_q(x) by the three-term recurrence H_{q+1} = x H_q - q H_{q-1}, as
    a new array (a float for scalar x)."""
    for cur in hermite_terms(q, x):
        pass
    if q < 2:  # H_0 and H_1 are yielded as views, not new buffers
        cur = cur.copy()
    return cur if cur.ndim else float(cur)


@dataclass(frozen=True)
class HermiteSpec:
    """A test function phi for the lattice functionals.

    kind 'pure' is H_q itself, 'indicator' is 1_{x >= level} (the excursion
    indicator), and 'custom' wraps any square-integrable pointwise callable,
    whose chaos expansion is taken up to order ``qmax`` (default DEFAULT_QMAX).
    """

    kind: str
    q: Optional[int] = None
    level: Optional[float] = None
    func: Optional[Callable] = None
    qmax: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KIND_PARAMS:
            raise ModelError(f"unknown phi kind {self.kind!r}")
        if self.kind == CUSTOM and self.qmax is None:
            object.__setattr__(self, "qmax", DEFAULT_QMAX)
        refuse(set_params(self, KIND_PARAMS, self.kind, f"{self.kind} phi"))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == PURE:
            return hermite_eval(self.q, x)
        if self.kind == INDICATOR:
            return (x >= self.level).astype(float)
        out = self.func(x)
        out = np.asarray(out, dtype=float)
        if out.shape != x.shape:  # non-vectorized callable
            out = np.array([self.func(v) for v in np.ravel(x)]).reshape(x.shape)
        return out


def _quadrature_coefficients(phi, nodes):
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)  # normalize to the standard Gaussian measure
    weighted = w * phi(x)
    coeffs = np.empty(phi.qmax + 1)
    fact = 1.0
    for q, h in enumerate(hermite_terms(phi.qmax, x)):
        if q > 1:
            fact *= q
        coeffs[q] = np.sum(weighted * h) / fact
    return coeffs


def hermite_coefficients(phi: HermiteSpec) -> np.ndarray:
    """Coefficients a_0, a_1, ... of phi, as far as its spec fixes them.

    A pure H_q is the unit vector a_0..a_q.  An indicator takes the exact
    closed form a_q = pdf(level) H_{q-1}(level) / q! up to DEFAULT_QMAX
    (quadrature of the step converges too slowly; the tests cross-check).
    A custom callable's a_0..a_qmax are integrated by Gauss-Hermite
    quadrature with a node-doubling convergence check.  One recurrence pass
    gives every H_q.
    """
    if phi.kind == PURE:
        coeffs = np.zeros(phi.q + 1)
        coeffs[phi.q] = 1.0
        return coeffs
    if phi.kind == INDICATOR:
        a = phi.level
        coeffs = np.empty(DEFAULT_QMAX + 1)
        coeffs[0] = normal_cdf(-a)
        pdf = np.exp(-a * a / 2.0) / np.sqrt(2.0 * np.pi)
        fact = 1.0
        for q, h in enumerate(hermite_terms(DEFAULT_QMAX - 1, a), start=1):
            fact *= q
            coeffs[q] = pdf * h / fact
        return coeffs
    coarse = _quadrature_coefficients(phi, _GH_NODES)
    fine = _quadrature_coefficients(phi, 2 * _GH_NODES)
    scale = max(1.0, float(np.max(np.abs(fine))))
    if np.max(np.abs(fine - coarse)) > _GH_RTOL * scale:
        raise NumericalError(
            "Gauss-Hermite quadrature did not converge for the custom phi "
            f"(node counts {_GH_NODES} and {2 * _GH_NODES} disagree)"
        )
    return fine


def hermite_rank(coefficients, tol: float = DEFAULT_TOL) -> int:
    """Smallest q >= 1 with |a_q| > tol."""
    coefficients = np.asarray(coefficients, dtype=float)
    for q in range(1, len(coefficients)):
        if abs(coefficients[q]) > tol:
            return q
    raise ModelError("all coefficients below tolerance: phi is degenerate (constant)")


def phi_second_moment(phi: HermiteSpec) -> float:
    """E[phi(N)^2], used for Parseval-gap truncation bounds."""
    if phi.kind == PURE:
        return float(math.factorial(phi.q))
    if phi.kind == INDICATOR:
        return normal_cdf(-phi.level)
    x, w = np.polynomial.hermite_e.hermegauss(2 * _GH_NODES)
    w = w / np.sqrt(2.0 * np.pi)
    return float(np.sum(w * phi(x) ** 2))
