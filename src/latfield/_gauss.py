"""Gaussian distribution functions without a special-function library.

The standard normal CDF and quantile, the Kolmogorov quantile behind the
KS verdict, and the orthant excess P(X >= h, Y >= h) - Phibar(h)^2 of a
standard bivariate normal pair, which gives the exact variance of the
excursion indicator 1{x >= h}.  The excess follows Genz's BVNU (Genz 2004,
"Numerical computation of rectangular bivariate and trivariate normal and
t probabilities", Statistics and Computing 14) with both limits equal.
"""
from __future__ import annotations

import functools
import math
from statistics import NormalDist

import numpy as np

from ._errors import ModelError

_TWO_PI = 2.0 * math.pi

# Gauss-Legendre rules on [-1, 1], positive nodes and their weights, with
# Genz's thresholds on |rho|: 6 nodes below 0.3, 12 below 0.75, else 20
_GL6 = ((0.2386191860831969086305017, 0.6612093864662645136613996,
         0.9324695142031520278123016),
        (0.4679139345726910473898703, 0.3607615730481386075698335,
         0.1713244923791703450402961))
_GL12 = ((0.1252334085114689154724414, 0.3678314989981801937526915,
          0.5873179542866174472967024, 0.7699026741943046870368938,
          0.9041172563704748566784659, 0.9815606342467192506905491),
         (0.2491470458134027850005624, 0.2334925365383548087608499,
          0.2031674267230659217490645, 0.1600783285433462263346525,
          0.1069393259953184309602547, 0.0471753363865118271946160))
_GL20 = ((0.0765265211334973337546404, 0.2277858511416450780804962,
          0.3737060887154195606725482, 0.5108670019508270980043641,
          0.6360536807265150254528367, 0.7463319064601507926143051,
          0.8391169718222188233945291, 0.9122344282513259058677524,
          0.9639719272779137912676661, 0.9931285991850949247861224),
         (0.1527533871307258506980843, 0.1491729864726037467878287,
          0.1420961093183820513292983, 0.1316886384491766268984945,
          0.1181945319615184173123774, 0.1019301198172404350367501,
          0.0832767415767047487247581, 0.0626720483341090635695065,
          0.0406014298003869413310400, 0.0176140071391521183118620))
_RULES = (_GL6, _GL12, _GL20)
_EDGES = (0.3, 0.75, 0.925)  # |rho| at 0.925 and above: asymptotic branch

# correlations per pass of orthant_excess: its temporaries stay in cache
_BLOCK = 1 << 14


def normal_cdf(x):
    """Phi(x), for a scalar (a float) or elementwise over an array.

    Through erf near 0 and erfc in the tails, as Cephes' ndtr does, so the
    lower tail keeps its relative precision."""
    if np.ndim(x) == 0:
        return _phi(float(x))
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(_phi, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _phi(x: float) -> float:
    z = x * math.sqrt(0.5)
    if abs(z) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(z)
    y = 0.5 * math.erfc(abs(z))
    return 1.0 - y if z > 0.0 else y


def normal_quantile(p: float) -> float:
    """Phi^-1(p) for 0 < p < 1 (Wichura's AS 241, through the standard
    library)."""
    return NormalDist().inv_cdf(p)


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution: 2 sum_k (-1)^(k-1)
    exp(-2 k^2 x^2) from x = 0.8 on, else 1 - sqrt(2 pi)/x sum_k
    exp(-(2k-1)^2 pi^2 / (8 x^2)); ten terms of either series reach past
    double precision."""
    if x <= 0.0:
        return 1.0
    if x >= 0.8:
        return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
                               for k in range(1, 11))
    return 1.0 - math.sqrt(_TWO_PI) / x * math.fsum(
        math.exp(-((2 * k - 1) * math.pi) ** 2 / (8.0 * x * x)) for k in range(1, 11))


@functools.lru_cache(maxsize=None)
def kolmogorov_quantile(alpha: float) -> float:
    """The x with P(K > x) = alpha, K Kolmogorov-distributed: the
    asymptotic level-alpha critical value of sqrt(n) times the one-sample
    KS statistic.  Bisection down to adjacent floats."""
    if not 0.0 < alpha < 1.0:
        raise ModelError(f"alpha must lie in (0, 1), got {alpha!r}")
    lo, hi = 0.0, 64.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi if abs(_kolmogorov_sf(hi) - alpha) < abs(_kolmogorov_sf(lo) - alpha) else lo
        if _kolmogorov_sf(mid) > alpha:
            lo = mid
        else:
            hi = mid


def orthant_excess(h: float, rho):
    """P(X >= h, Y >= h) - Phibar(h)^2 for standard normals X, Y with
    correlation rho, elementwise over rho (|rho| <= 1).

    Genz's BVNU with both limits h: below |rho| = 0.925 the excess is his
    Gauss-Legendre sum (asin(rho) / 4 pi) sum_i w_i exp(-h^2 / (1 + sin t_i))
    itself, with no Phibar(h)^2 to cancel; from 0.925 on it is his
    expansion around rho = +-1, and exactly Phibar(h) Phi(h) and
    -Phibar(h)^2 at rho = 1 and -1.  The excess is even in h."""
    h = abs(float(h))
    rho = np.asarray(rho, dtype=float)
    if _phi(-h) == 0.0:  # |excess| <= Phibar(h): below every double
        return np.zeros(rho.shape)
    flat = rho.reshape(-1)
    out = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        size = np.abs(block)
        tier = sum((size >= edge).view(np.int8) for edge in _EDGES)
        for k in range(len(_EDGES) + 1):
            idx = np.flatnonzero(tier == k)
            if idx.size:
                part = block[idx]
                out[start + idx] = (_legendre_excess(h * h, part, _RULES[k]) if k < len(_RULES)
                                    else _asymptotic_excess(h, part))
    return out.reshape(rho.shape)


def _legendre_excess(hh: float, rho, rule):
    """(1 / 2 pi) int_0^asin(rho) exp(-h^2 / (1 + sin t)) dt by the
    Gauss-Legendre rule, its nodes t = (1 -+ x_i) asin(rho) / 2 in pairs
    of equal weight: 1 + sin t = (1 + s c_i) -+ c s_i from s, c = sin, cos
    of asin(rho) / 2 and s_i, c_i = sin, cos of x_i asin(rho) / 2, one
    sine per pair."""
    half = np.arcsin(rho)
    half *= 0.5
    c = (1.0 - rho) * (1.0 + rho)
    np.sqrt(c, out=c)   # cos(asin(rho))
    c += 1.0
    c *= 0.5
    np.sqrt(c, out=c)   # cos(half) >= 1/sqrt(2)
    s = rho / c
    s *= 0.5            # sin(half) = rho / (2 cos(half))
    total = np.zeros_like(rho)
    si, ci, t, u = (np.empty_like(rho) for _ in range(4))
    for x, w in zip(*rule):
        np.multiply(half, x, out=si)
        np.sin(si, out=si)
        np.multiply(si, si, out=ci)
        np.subtract(1.0, ci, out=ci)
        np.sqrt(ci, out=ci)
        ci *= s
        ci += 1.0
        si *= c
        np.add(ci, si, out=t)
        np.divide(-hh, t, out=t)
        np.exp(t, out=t)
        np.subtract(ci, si, out=u)
        np.divide(-hh, u, out=u)
        np.exp(u, out=u)
        t += u
        t *= w
        total += t
    total *= half
    total *= 1.0 / _TWO_PI
    return total


def _asymptotic_excess(h: float, rho):
    """Genz's BVNU branch for |rho| >= 0.925, h >= 0: P = Phibar(h) - A
    for rho > 0 and P = B for rho < 0, A and B his expansions in
    sqrt(1 - rho^2)."""
    tail, cdf = _phi(-h), _phi(h)
    out = np.where(rho > 0.0, tail * cdf, -tail * tail)
    inner = np.flatnonzero(~(np.abs(rho) >= 1.0))
    if inner.size == 0:
        return out
    r = rho[inner]
    pos = r > 0.0
    hh = h * h
    hk = np.where(pos, hh, -hh)             # h k with k = sign(rho) h
    bs = np.where(pos, 0.0, 4.0 * hh)       # (h - k)^2
    a2 = (1.0 - np.abs(r)) * (1.0 + np.abs(r))
    a = np.sqrt(a2)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    bvn = (a * np.exp(-(bs / a2 + hk) / 2.0)
           * (1.0 - c * (bs - a2) * (1.0 - d * bs) / 3.0 + c * d * a2 * a2))
    if hh < 100.0:  # Genz's hk > -100: past it the term is negligible
        b = np.sqrt(bs)
        sp = math.sqrt(_TWO_PI) * normal_cdf(-b / a)
        bvn -= np.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0)
    a = a / 2.0
    for x, w in zip(*_GL20):
        for node in (1.0 - x, 1.0 + x):
            xs = (a * node) ** 2
            rs = np.sqrt(1.0 - xs)
            ep = np.exp(-hk * xs / (2.0 * (1.0 + rs) ** 2)) / rs
            sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
            bvn += a * w * np.exp(-(bs / xs + hk) / 2.0) * (ep - sp)
    bvn /= _TWO_PI
    out[inner] = np.where(pos, tail * cdf - bvn, bvn - tail * tail)
    return out
