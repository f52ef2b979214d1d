"""The Gaussian distribution functions that replace a special-function
library, certified against scipy, which only the test suite needs."""
import math
import warnings

import numpy as np
import pytest
from scipy.special import kolmogi, ndtr, owens_t

from latfield import _gauss
from latfield._errors import ModelError
from latfield._gauss import kolmogorov_quantile, normal_cdf, orthant_excess


def _owens_t_excess(h, rho):
    # P(X >= h, Y >= h) - Phibar(h)^2 = Phibar(h) - 2 T(h, a) - Phibar(h)^2,
    # a = sqrt((1 - rho) / (1 + rho)), T being Owen's T
    tail = ndtr(-h)
    with np.errstate(divide="ignore"):
        return tail - 2.0 * owens_t(h, np.sqrt((1.0 - rho) / (1.0 + rho))) - tail**2


def test_orthant_excess_is_certified_against_owens_t():
    levels = np.concatenate([np.linspace(-8.0, 8.0, 321), [1e-4, -1e-4, 1e-3, -1e-3],
                             [12.0, -25.0, 38.0, 40.0, -1e3]])
    ends = [1.0, -1.0, 1.0 - 1e-15, -1.0 + 1e-15, np.nextafter(1.0, 0.0),
            np.nextafter(-1.0, 0.0), 1e-12, -1e-12, 0.0]
    edges = [s * e for e in _gauss._EDGES for s in (1.0, -1.0)]
    edges += [np.nextafter(e, 0.0) for e in edges]
    near = np.logspace(-15, -1, 29)
    rho = np.concatenate([np.linspace(-1.0, 1.0, 2001), ends, edges, 1.0 - near, near - 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worst = max(float(np.max(np.abs(orthant_excess(h, rho) - _owens_t_excess(h, rho))))
                    for h in levels)
    assert worst <= 1e-15


def test_orthant_excess_is_exact_at_the_ends():
    for h in (0.0, 0.7, -2.5):
        tail, cdf = normal_cdf(-abs(h)), normal_cdf(abs(h))
        got = orthant_excess(h, np.array([1.0, -1.0, 0.0]))
        assert got.tolist() == [tail * cdf, -tail * tail, 0.0]


def test_orthant_excess_keeps_shape_across_blocks():
    # more values than one block, laid out as a 2-D array, every tier mixed
    rng = np.random.default_rng(3)
    rho = rng.uniform(-1.0, 1.0, size=(3, _gauss._BLOCK - 5))
    rho[1, ::7] = 0.1
    got = orthant_excess(0.4, rho)
    assert got.shape == rho.shape
    assert np.max(np.abs(got - _owens_t_excess(0.4, rho))) <= 1e-15
    assert np.array_equal(got[2], orthant_excess(0.4, rho[2]))


def test_gauss_legendre_rules():
    for nodes, weights in _gauss._RULES:
        n = 2 * len(nodes)
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(np.array(nodes) - x[n // 2:])) <= 2e-15
        assert np.max(np.abs(np.array(weights) - w[n // 2:])) <= 2e-15


def test_normal_cdf_is_ndtr():
    # Phi's relative condition number grows as x^2 in the lower tail, so
    # both libraries may round differently there by that factor
    x = np.concatenate([np.linspace(-37.0, 9.0, 4601), [0.0, -0.0, 1e-300]])
    got = normal_cdf(x)
    want = ndtr(x)
    assert np.all(np.abs(got - want) <= 2.0 * np.finfo(float).eps * (1.0 + x * x) * want)
    assert normal_cdf(x.reshape(-1, 1)).shape == (x.size, 1)
    assert type(normal_cdf(np.float64(0.3))) is float
    assert normal_cdf(0.0) == 0.5


def test_kolmogorov_quantile_is_kolmogi_and_checks_alpha():
    for alpha in (1e-10, 0.2, 0.9, 0.999):
        assert kolmogorov_quantile(alpha) == pytest.approx(float(kolmogi(alpha)), rel=1e-14)
    for alpha in (0.0, 1.0, math.nan):
        with pytest.raises(ModelError):
            kolmogorov_quantile(alpha)
