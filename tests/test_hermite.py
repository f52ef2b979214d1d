import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from latfield._errors import ModelError, NumericalError
from latfield.hermite import (
    HermiteSpec,
    hermite_coefficients,
    hermite_eval,
    hermite_rank,
    phi_second_moment,
)

INV_SQRT_2PI = 0.3989422804014327  # standard normal density at 0


def test_hermite_eval_small_orders():
    assert hermite_eval(2, 1.0) == pytest.approx(0.0)
    assert hermite_eval(3, 2.0) == pytest.approx(2.0)
    assert hermite_eval(4, 0.0) == pytest.approx(3.0)
    # recurrence agrees with the explicit polynomials up to order 5
    xs = np.linspace(-3, 3, 41)
    explicit = {
        0: np.ones_like(xs),
        1: xs,
        2: xs**2 - 1,
        3: xs**3 - 3 * xs,
        4: xs**4 - 6 * xs**2 + 3,
        5: xs**5 - 10 * xs**3 + 15 * xs,
    }
    for q, want in explicit.items():
        assert np.allclose(hermite_eval(q, xs), want, atol=1e-12)


def test_orthogonality_under_gaussian_quadrature():
    x, w = np.polynomial.hermite_e.hermegauss(80)
    w = w / np.sqrt(2 * np.pi)
    for m in range(13):
        hm = hermite_eval(m, x)
        for n in range(m, 13):
            inner = np.sum(w * hm * hermite_eval(n, x))
            want = math.factorial(n) if m == n else 0.0
            scale = math.sqrt(math.factorial(m) * math.factorial(n))
            assert inner == pytest.approx(want, abs=1e-10 * max(1.0, scale))


def test_pure_and_polynomial_coefficients():
    pure3 = hermite_coefficients(HermiteSpec("pure", q=3))
    assert pure3[3] == 1.0
    assert np.count_nonzero(pure3) == 1
    # x^2 = H_2(x) + 1
    sq = hermite_coefficients(HermiteSpec("custom", func=lambda x: x**2))
    assert sq[0] == pytest.approx(1.0, abs=1e-10)
    assert sq[2] == pytest.approx(1.0, abs=1e-10)
    others = np.delete(sq, [0, 2])
    assert np.max(np.abs(others)) < 1e-10


def test_indicator_coefficients_closed_form_and_quadrature():
    coeffs = hermite_coefficients(HermiteSpec("indicator", level=0.0))
    assert coeffs[0] == pytest.approx(0.5)
    assert coeffs[1] == pytest.approx(INV_SQRT_2PI, rel=1e-9)
    # odd symmetry of the level-0 indicator kills even orders >= 2
    assert np.max(np.abs(coeffs[2::2])) < 1e-15

    # independent cross-check: adaptive integration of H_q * pdf over x >= a
    a = 0.7
    coeffs_a = hermite_coefficients(HermiteSpec("indicator", level=a))
    for q in range(1, 8):
        val, err = integrate.quad(
            lambda x, q=q: hermite_eval(q, x) * norm.pdf(x), a, np.inf
        )
        assert coeffs_a[q] == pytest.approx(val / math.factorial(q), abs=1e-9)
    # and against the analytic values pdf(a) * H_{q-1}(a) / q!
    assert coeffs_a[1] == pytest.approx(norm.pdf(a), rel=1e-12)
    assert coeffs_a[3] == pytest.approx(norm.pdf(a) * (a**2 - 1) / 6, rel=1e-12)


def test_parseval_inequality_for_indicator():
    phi = HermiteSpec("indicator", level=0.3)
    second = phi_second_moment(phi)
    assert second == pytest.approx(norm.sf(0.3))
    partials = []
    for qmax in (4, 8, 16, 20):
        c = hermite_coefficients(phi, qmax=qmax)
        partials.append(sum(math.factorial(q) * c[q] ** 2 for q in range(qmax + 1)))
    assert all(b >= a - 1e-15 for a, b in zip(partials, partials[1:]))
    assert all(p <= second + 1e-12 for p in partials)
    # the gap shrinks with qmax (indicator coefficients decay ~ q^(-3/2))
    assert second - partials[-1] < second - partials[0]
    assert second - partials[-1] < 0.05


def test_hermite_rank():
    assert hermite_rank(hermite_coefficients(HermiteSpec("indicator", level=0.0))) == 1
    assert hermite_rank([1.0, 0.0, 1.0]) == 2
    assert hermite_rank(hermite_coefficients(HermiteSpec("pure", q=5))) == 5
    with pytest.raises(ModelError):
        hermite_rank([3.0, 0.0, 0.0])  # constant phi


def test_custom_quadrature_convergence_guard():
    # smooth phi converges; a wild oscillation at quadrature scale must not
    smooth = hermite_coefficients(HermiteSpec("custom", func=np.tanh))
    assert hermite_rank(smooth, tol=1e-8) == 1
    with pytest.raises(NumericalError):
        hermite_coefficients(HermiteSpec("custom", func=lambda x: np.sin(80.0 * x**2)))


def test_spec_validation():
    with pytest.raises(ModelError):
        HermiteSpec("pure")
    with pytest.raises(ModelError):
        HermiteSpec("pure", q=0)
    with pytest.raises(ModelError):
        HermiteSpec("pure", q=25)
    with pytest.raises(ModelError):
        HermiteSpec("indicator")
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError, match="finite"):
            HermiteSpec("indicator", level=level)
    with pytest.raises(ModelError):
        HermiteSpec("sine")
