import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from latfield._errors import ModelError, NumericalError
from latfield._gauss import normal_cdf
from latfield.hermite import (
    _GH_NODES,
    CUSTOM,
    INDICATOR,
    MAX_CHAOS_ORDER,
    PURE,
    HermiteSpec,
    hermite_coefficients,
    hermite_eval,
    hermite_rank,
    hermite_terms,
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


def test_hermite_terms_reuse_the_callers_buffers():
    # H_0 and H_1 are no copies; H_2 on are computed in the caller's list
    # of buffers (one for q = 2, three for q >= 3), which the pass fills
    # only as it needs, with the values of a pass in new buffers; and
    # hermite_eval still returns a new array for every order
    x = np.linspace(-3.0, 3.0, 29).reshape(29, 1) * np.ones(3)
    buffers = []
    for q, held in ((0, 0), (1, 0), (2, 1), (3, 3), (6, 3), (2, 3)):
        ids = [id(b) for b in buffers]
        fresh = [t.copy() for t in hermite_terms(q, x)]
        for k, term in enumerate(hermite_terms(q, x, buffers)):
            assert np.array_equal(term, fresh[k]), (q, k)
            if k >= 2:
                assert any(term is b for b in buffers), (q, k)
        assert len(buffers) == held and [id(b) for b in buffers[:len(ids)]] == ids
    first, second = hermite_terms(1, x)
    assert first.shape == x.shape and not first.flags.writeable and second is x
    for q in range(5):
        value = hermite_eval(q, x)
        assert value.flags.writeable and not np.shares_memory(value, x), q
        assert not np.shares_memory(value, hermite_eval(q, x)), q
    assert not np.shares_memory(HermiteSpec("pure", q=1)(x), x)


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
    c = hermite_coefficients(phi)
    assert len(c) == 21
    partials = []
    for qmax in (4, 8, 16, 20):
        partials.append(sum(math.factorial(q) * c[q] ** 2 for q in range(qmax + 1)))
    assert all(b >= a - 1e-15 for a, b in zip(partials, partials[1:]))
    assert all(p <= second + 1e-12 for p in partials)
    # the gap shrinks with qmax (indicator coefficients decay ~ q^(-3/2))
    assert second - partials[-1] < second - partials[0]
    assert second - partials[-1] < 0.05


def test_coefficients_are_the_per_order_recurrence_values_bit_for_bit():
    # one recurrence pass per coefficient vector gives the bits of one
    # hermite_eval per order, with the same running factorial
    x, w = np.polynomial.hermite_e.hermegauss(2 * _GH_NODES)
    w = w / np.sqrt(2.0 * np.pi)
    for qmax in (20, 29):
        want, fact = np.empty(qmax + 1), 1.0
        for q in range(qmax + 1):
            if q > 1:
                fact *= q
            want[q] = np.sum(w * np.tanh(x) * hermite_eval(q, x)) / fact
        got = hermite_coefficients(HermiteSpec(CUSTOM, func=np.tanh, qmax=qmax))
        assert np.array_equal(got, want), qmax
    for a in (0.0, 0.8):
        want, fact = np.empty(21), 1.0
        want[0] = normal_cdf(-a)
        pdf = np.exp(-a * a / 2.0) / np.sqrt(2.0 * np.pi)
        for q in range(1, 21):
            fact *= q
            want[q] = pdf * hermite_eval(q - 1, a) / fact
        got = hermite_coefficients(HermiteSpec(INDICATOR, level=a))
        assert np.array_equal(got, want), a


def test_the_spec_fixes_the_length_of_its_expansion():
    for q in (1, 3, MAX_CHAOS_ORDER):
        coeffs = hermite_coefficients(HermiteSpec(PURE, q=q))
        assert len(coeffs) == q + 1 and coeffs[q] == 1.0 and np.count_nonzero(coeffs) == 1
    assert len(hermite_coefficients(HermiteSpec(INDICATOR, level=0.3))) == 21
    for qmax in (0, 5, 29):
        assert len(hermite_coefficients(HermiteSpec(CUSTOM, func=np.tanh, qmax=qmax))) == qmax + 1
    assert HermiteSpec(CUSTOM, func=np.tanh).qmax == 20


def test_hermite_rank():
    assert hermite_rank(hermite_coefficients(HermiteSpec("indicator", level=0.0))) == 1
    assert hermite_rank([1.0, 0.0, 1.0]) == 2
    assert hermite_rank(hermite_coefficients(HermiteSpec("pure", q=5))) == 5
    with pytest.raises(ModelError):
        hermite_rank([3.0, 0.0, 0.0])  # constant phi


def test_custom_quadrature_convergence_guard():
    # smooth phi converges; a wild oscillation at quadrature scale must not
    smooth = hermite_coefficients(HermiteSpec("custom", func=np.tanh))
    assert hermite_rank(smooth) == 1
    with pytest.raises(NumericalError):
        hermite_coefficients(HermiteSpec("custom", func=lambda x: np.sin(80.0 * x**2)))


def test_spec_validation():
    with pytest.raises(ModelError):
        HermiteSpec("pure")
    with pytest.raises(ModelError):
        HermiteSpec("pure", q=0)
    # MAX_CHAOS_ORDER is the one cap on a pure order
    assert HermiteSpec("pure", q=30).q == 30 == MAX_CHAOS_ORDER
    with pytest.raises(ModelError, match=r"^q: must be at most 30, got 31$"):
        HermiteSpec("pure", q=31)
    with pytest.raises(ModelError):
        HermiteSpec("indicator")
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError, match="finite"):
            HermiteSpec("indicator", level=level)
    with pytest.raises(ModelError):
        HermiteSpec("sine")
    with pytest.raises(ModelError, match=r"unknown phi kind \['pure'\]"):
        HermiteSpec(["pure"])
    # a parameter of another kind is refused, a callable included
    with pytest.raises(ModelError, match="level: not a parameter of pure phi"):
        HermiteSpec("pure", q=2, level=0.5)
    with pytest.raises(ModelError, match="func: not a parameter of indicator phi"):
        HermiteSpec("indicator", level=0.0, func=np.tanh)


def test_qmax_belongs_to_a_custom_phi_and_is_checked():
    for qmax, why in (("x", "expected a number, got str"), (-1, "must be at least 0, got -1"),
                      (2.5, "must be an integer, got 2.5"),
                      (True, "expected a number, got bool")):
        with pytest.raises(ModelError) as info:
            HermiteSpec(CUSTOM, func=np.tanh, qmax=qmax)
        assert info.value.violations == [("qmax", why)], qmax
    # past MAX_CHAOS_ORDER no exact variance could take the chaoses
    with pytest.raises(ModelError, match=r"^qmax: must be at most 30, got 31$"):
        HermiteSpec(CUSTOM, func=np.tanh, qmax=31)
    assert HermiteSpec(CUSTOM, func=np.tanh, qmax=30).qmax == 30
    assert HermiteSpec(CUSTOM, func=np.tanh, qmax=0).qmax == 0
    assert HermiteSpec(CUSTOM, func=np.tanh, qmax=7.0).qmax == 7
    for kind, params in ((PURE, {"q": 2}), (INDICATOR, {"level": 0.0})):
        for qmax in (20, 30):
            with pytest.raises(ModelError) as info:
                HermiteSpec(kind, qmax=qmax, **params)
            assert info.value.violations == [("qmax", f"not a parameter of {kind} phi")]
        assert HermiteSpec(kind, **params).qmax is None
