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
from scipy.stats import norm

from ._errors import ModelError, NumericalError

PURE = "pure"
INDICATOR = "indicator"
CUSTOM = "custom"

DEFAULT_QMAX = 20
DEFAULT_TOL = 1e-12

#: Gauss-Hermite node count (doubled once for the convergence check)
_GH_NODES = 2 * DEFAULT_QMAX + 32
_GH_RTOL = 1e-8


def hermite_eval(q: int, x):
    """H_q(x) by the three-term recurrence H_{q+1} = x H_q - q H_{q-1}."""
    if q < 0:
        raise ModelError("hermite order must be nonnegative")
    x = np.asarray(x, dtype=float)
    if q == 0:
        return np.ones_like(x) if x.ndim else 1.0
    prev = np.ones_like(x)
    cur = x.copy()
    for k in range(1, q):
        prev, cur = cur, x * cur - k * prev
    return cur if x.ndim else float(cur)


@dataclass(frozen=True)
class HermiteSpec:
    """A test function phi for the lattice functionals.

    kind 'pure' is H_q itself, 'indicator' is 1_{x >= level} (the excursion
    indicator), and 'custom' wraps any square-integrable pointwise callable.
    """

    kind: str
    q: Optional[int] = None
    level: Optional[float] = None
    func: Optional[Callable] = None
    qmax: int = DEFAULT_QMAX

    def __post_init__(self):
        if self.kind == PURE:
            if self.q is None or self.q < 1:
                raise ModelError("pure spec requires q >= 1")
            if self.q > self.qmax:
                raise ModelError(f"pure order {self.q} exceeds qmax {self.qmax}")
        elif self.kind == INDICATOR:
            if self.level is None:
                raise ModelError("indicator spec requires a level")
            if not math.isfinite(self.level):
                raise ModelError(f"indicator level must be a finite number, got {self.level}")
        elif self.kind == CUSTOM:
            if self.func is None:
                raise ModelError("custom spec requires a callable")
        else:
            raise ModelError(f"unknown phi kind {self.kind!r}")

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


def _quadrature_coefficients(phi, qmax, nodes):
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)  # normalize to the standard Gaussian measure
    fx = phi(x)
    coeffs = np.empty(qmax + 1)
    fact = 1.0
    for q in range(qmax + 1):
        if q > 1:
            fact *= q
        coeffs[q] = np.sum(w * fx * hermite_eval(q, x)) / fact
    return coeffs


def hermite_coefficients(phi: HermiteSpec, qmax: Optional[int] = None) -> np.ndarray:
    """Coefficients a_0..a_qmax of phi.

    Pure specs short-circuit to a unit vector.  Indicator specs use the
    closed form a_q = pdf(level) * H_{q-1}(level) / q! (exact; quadrature
    of the discontinuous indicator converges too slowly and is kept as a
    cross-check in the test suite).  Custom callables are integrated by
    Gauss-Hermite quadrature with a node-doubling convergence check.
    """
    qmax = phi.qmax if qmax is None else qmax
    if phi.kind == PURE:
        coeffs = np.zeros(qmax + 1)
        if phi.q > qmax:
            raise ModelError(f"pure order {phi.q} exceeds qmax {qmax}")
        coeffs[phi.q] = 1.0
        return coeffs
    if phi.kind == INDICATOR:
        a = phi.level
        coeffs = np.empty(qmax + 1)
        coeffs[0] = norm.sf(a)
        pdf = norm.pdf(a)
        fact = 1.0
        for q in range(1, qmax + 1):
            fact *= q
            coeffs[q] = pdf * hermite_eval(q - 1, a) / fact
        return coeffs
    coarse = _quadrature_coefficients(phi, qmax, _GH_NODES)
    fine = _quadrature_coefficients(phi, qmax, 2 * _GH_NODES)
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
        return float(norm.sf(phi.level))
    x, w = np.polynomial.hermite_e.hermegauss(2 * _GH_NODES)
    w = w / np.sqrt(2.0 * np.pi)
    return float(np.sum(w * phi(x) ** 2))
