import numpy as np
import pytest

from latfield._errors import ModelError, NumericalError
from latfield.chaoscalc import gamma_quotient
from latfield.covariance import (
    ADDITIVE,
    CAUCHY,
    EXPONENTIAL,
    GNEITING,
    ISOTROPIC,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
    composite_embedding_values,
    decay_exponent,
    embedding_spectrum,
    eval_composite,
    eval_factor,
    gneiting_sandwich,
    is_nonnegative,
)
from latfield.fieldsim import LatticeSpec, build_sampler, dense_covariance_matrix

FGN_075_LAG1 = 0.41421356237309515  # 0.5 * (2**1.5 - 2), i.e. sqrt(2) - 1


def _fgn(h):
    return FactorCovariance("fgn", dim=1, hurst=h)


def _cauchy(beta, dim=1):
    return FactorCovariance("cauchy", dim=dim, exponent=beta)


def test_factor_values_at_known_lags():
    assert eval_factor(_fgn(0.5), (1,)) == pytest.approx(0.0, abs=1e-15)
    assert eval_factor(_fgn(0.75), (1,)) == pytest.approx(FGN_075_LAG1, rel=1e-12)
    assert eval_factor(_cauchy(2.0), (1,)) == pytest.approx(0.5)
    # unit variance at lag 0 for every builtin family
    for model in (_fgn(0.3), _cauchy(1.3), FactorCovariance("exponential", scale=2.0),
                  FactorCovariance("white_noise")):
        assert eval_factor(model, (0,) * model.dim) == pytest.approx(1.0)


def test_factor_evenness_and_bounds():
    rng = np.random.default_rng(7)
    models = [_fgn(0.2), _fgn(0.8), _cauchy(0.7, dim=2),
              FactorCovariance("exponential", scale=1.5, dim=2)]
    for model in models:
        for _ in range(25):
            lag = rng.integers(-6, 7, size=model.dim)
            v = eval_factor(model, lag)
            assert v == pytest.approx(eval_factor(model, -lag), abs=1e-15)
            assert -1.0 <= v <= 1.0


def test_factor_input_validation():
    with pytest.raises(ModelError):
        eval_factor(_fgn(0.6), (1, 2))  # dimension mismatch
    with pytest.raises(ModelError):
        FactorCovariance("fgn", hurst=1.5)
    with pytest.raises(ModelError):
        FactorCovariance("cauchy", exponent=-1.0)
    with pytest.raises(ModelError):
        FactorCovariance("spherical")
    with pytest.raises(ModelError, match=r"unknown covariance family \['fgn'\]"):
        FactorCovariance(["fgn"])
    # a parameter of another family is refused, not carried along
    with pytest.raises(ModelError, match="hurst: not a parameter of family 'cauchy'"):
        FactorCovariance("cauchy", exponent=1.0, hurst=0.5)
    tab = FactorCovariance("tabulated", dim=1, table={(0,): 1.0, (1,): 0.25})
    assert eval_factor(tab, (-1,)) == pytest.approx(0.25)  # even extension
    with pytest.raises(ModelError):
        eval_factor(tab, (2,))  # missing lag
    # a table has no entry between its integral lags
    tab = FactorCovariance("tabulated", table={(0,): 1.0, (1,): 0.5, (2,): 0.1})
    for lag in (0.5, 1.9, -1.5):
        with pytest.raises(ModelError, match=rf"^tabulated covariance has no entry for lag "
                                             rf"\({lag},\)$"):
            eval_factor(tab, lag)


def test_a_tabulated_covariance_must_be_even():
    # C(1) = 0.5 but C(-1) = 0.1: no covariance, and the sampler and the
    # chaos sums would each read a different half of it
    with pytest.raises(ModelError, match=r"must be even, but it holds 0.5 at lag \(1,\) "
                                         r"and 0.1 at lag \(-1,\)"):
        FactorCovariance("tabulated", table={(0,): 1.0, (1,): 0.5, (-1,): 0.1})
    with pytest.raises(ModelError, match="must be even"):
        FactorCovariance("tabulated", dim=2, table={(0, 0): 1.0, (1, -1): 0.2, (-1, 1): 0.3})
    # both halves may be given when they agree
    tab = FactorCovariance("tabulated", table={(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    assert eval_factor(tab, (-1,)) == 0.5


def test_window_sizes_are_checked_like_a_lattice_block():
    # gamma_quotient and embedding_spectrum take raw sizes: one positive int
    # per axis of the factor, each violation keyed by its index
    entry_points = (lambda f, sizes: gamma_quotient(f, sizes, 2), embedding_spectrum)
    bad = [
        ((0,), [("sizes[0]", "must be at least 1, got 0")]),
        ((-3,), [("sizes[0]", "must be at least 1, got -3")]),
        ((2.5,), [("sizes[0]", "must be an integer, got 2.5")]),
        (("4",), [("sizes[0]", "expected a number, got str")]),
        ((True,), [("sizes[0]", "expected a number, got bool")]),
        ((2, 3), [("sizes", "must be a sequence of 1 sizes, got (2, 3)")]),
        (4, [("sizes", "must be a sequence of 1 sizes, got 4")]),
    ]
    for call in entry_points:
        for sizes, violations in bad:
            with pytest.raises(ModelError) as err:
                call(_fgn(0.7), sizes)
            assert err.value.violations == violations, sizes
        with pytest.raises(ModelError) as err:
            call(_cauchy(0.5, dim=2), (0, "3"))
        assert err.value.violations == [("sizes[0]", "must be at least 1, got 0"),
                                        ("sizes[1]", "expected a number, got str")]
    assert gamma_quotient(_fgn(0.7), (4.0,), 2) == gamma_quotient(_fgn(0.7), (4,), 2)
    assert embedding_spectrum(_fgn(0.7), (4.0,)).embedded_shape == (6,)


def test_no_circulant_embedding_for_a_table_uneven_in_a_coordinate():
    # C(1, 1) = 0.3 but C(1, -1) = 0: even under z -> -z, so a valid
    # covariance, but the embedding grid evaluates each axis at |z_j|
    skew = FactorCovariance("tabulated", dim=2, table={
        (0, 0): 1.0, (1, 1): 0.3, (1, -1): 0.0, (1, 0): 0.0, (0, 1): 0.0})
    with pytest.raises(NumericalError, match="not even in each lag coordinate"):
        embedding_spectrum(skew, (2, 2))
    with pytest.raises(NumericalError, match="not even in each lag coordinate"):
        composite_embedding_values(CompositeCovariance(GNEITING, (_cauchy(1.0), skew)),
                                   (2, 2, 2))
    even = FactorCovariance("tabulated", dim=2, table={
        (0, 0): 1.0, (1, 1): 0.3, (1, -1): 0.3, (1, 0): 0.0, (0, 1): 0.0})
    assert embedding_spectrum(even, (2, 2)).embedded_shape == (2, 2)


def test_constructors_reject_non_finite_parameters():
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"family": "cauchy", "exponent": nan}, {"family": "cauchy", "exponent": inf},
                   {"family": "exponential", "scale": nan},
                   {"family": "exponential", "scale": inf},
                   {"family": "tabulated", "table": {(0,): 1.0, (1,): nan}}):
        with pytest.raises(ModelError, match="finite"):
            FactorCovariance(**kwargs)
    for weights in ((nan, 0.9), (0.1, nan), (nan, nan)):
        with pytest.raises(ModelError, match="weights"):
            CompositeCovariance(ADDITIVE, (_cauchy(1.0), _fgn(0.6)), weights=weights)
    # an array of weights is read as its numbers
    assert CompositeCovariance(ADDITIVE, (_cauchy(1.0), _fgn(0.6)),
                               weights=np.array([0.1, 0.9])).weights == (0.1, 0.9)


def test_separable_product_law():
    f1, f2 = _fgn(0.7), _cauchy(1.2, dim=2)
    cov = CompositeCovariance(SEPARABLE, (f1, f2))
    rng = np.random.default_rng(3)
    for _ in range(30):
        lag = rng.integers(-5, 6, size=3)
        expected = eval_factor(f1, lag[:1]) * eval_factor(f2, lag[1:])
        assert eval_composite(cov, lag) == pytest.approx(expected, abs=1e-15)
    # example: factor values 0.5 and 0.25 multiply
    sep = CompositeCovariance(
        SEPARABLE,
        (_cauchy(2.0), FactorCovariance("tabulated", table={(0,): 1.0, (3,): 0.25})),
    )
    assert eval_composite(sep, (1, 3)) == pytest.approx(0.125)


def test_gneiting_axis_restrictions():
    cov = CompositeCovariance(GNEITING, (_cauchy(1.5), _cauchy(0.8)))
    c1, c2 = cov.factors
    for k in range(6):
        assert eval_composite(cov, (k, 0)) == pytest.approx(eval_factor(c1, (k,)))
        assert eval_composite(cov, (0, k)) == pytest.approx(eval_factor(c2, (k,)))
    with pytest.raises(ModelError):
        CompositeCovariance(
            GNEITING,
            (FactorCovariance("tabulated", table={(0,): 1.0}), _cauchy(1.0)),
        )


def test_gneiting_sandwich_exhaustive_8x8():
    cov = CompositeCovariance(GNEITING, (_cauchy(1.5), _cauchy(0.8)))
    diam = 7.0
    for z1 in range(-7, 8):
        for z2 in range(-7, 8):
            lower, upper = gneiting_sandwich(cov, (z1, z2), diam)
            val = eval_composite(cov, (z1, z2))
            assert lower <= val + 1e-15
            assert val <= upper + 1e-15
    assert gneiting_sandwich(cov, (0, 0), diam) == pytest.approx((1.0, 1.0))
    # on the block-1 axis both envelopes collapse onto c1
    lo, up = gneiting_sandwich(cov, (3, 0), diam)
    assert lo == pytest.approx(eval_factor(cov.factors[0], (3,)))
    assert up >= lo
    with pytest.raises(ModelError):
        gneiting_sandwich(CompositeCovariance(SEPARABLE, (_fgn(0.6),)), (1,), 4.0)


@pytest.mark.parametrize("c1, c2, blocks", [
    (_cauchy(1.0), _cauchy(1.0), ((24,), (24,))),
    (_cauchy(1.0), _cauchy(0.7), ((8,), (8,))),
    (_cauchy(1.0), _cauchy(0.7), ((24,), (24,))),
    (_cauchy(1.5), _cauchy(0.8), ((8,), (8,))),
    (FactorCovariance(EXPONENTIAL, scale=2.0), _cauchy(0.5), ((24,), (24,))),
    (FactorCovariance(EXPONENTIAL, scale=1.0, dim=2), _cauchy(1.5), ((8, 8), (8,))),
    (_cauchy(0.3), _cauchy(1.0), ((24,), (24,))),  # gneiting-growing
])
def test_gneiting_class_models_are_positive_semidefinite(c1, c2, blocks):
    # Gneiting (2002, Thm 2): c1(r) = phi(r^2) with phi completely monotone
    # (Cauchy, exponential) and c2 = psi^(-d1/2) with psi' completely
    # monotone (Cauchy of exponent <= d1) make a covariance, so its lattice
    # matrix is PSD and some exact sampler exists
    assert c1.family in (CAUCHY, EXPONENTIAL) and c2.family == CAUCHY
    assert c2.exponent <= c1.dim
    cov = CompositeCovariance(GNEITING, (c1, c2))
    lat = LatticeSpec(blocks)
    assert np.linalg.eigvalsh(dense_covariance_matrix(cov, lat)).min() >= -1e-10
    build_sampler(cov, lat)


def test_additive_normalization():
    cov = CompositeCovariance(
        ADDITIVE, (_cauchy(0.4), _cauchy(3.0)), weights=(0.3, 0.7)
    )
    assert eval_composite(cov, (0, 0)) == pytest.approx(1.0)
    v = eval_composite(cov, (2, 5))
    expected = 0.3 * eval_factor(cov.factors[0], (2,)) + 0.7 * eval_factor(
        cov.factors[1], (5,)
    )
    assert v == pytest.approx(expected)
    with pytest.raises(ModelError):
        CompositeCovariance(ADDITIVE, (_cauchy(0.4), _cauchy(3.0)), weights=(0.5, 0.6))


def test_isotropic_profile():
    cov = CompositeCovariance(
        ISOTROPIC, (_cauchy(0.5, dim=2),), block_dims=(1, 1)
    )
    assert cov.blocks == (1, 1)
    assert eval_composite(cov, (3, 4)) == pytest.approx((1 + 25.0) ** -0.25)
    with pytest.raises(ModelError):
        CompositeCovariance(ISOTROPIC, (_cauchy(0.5, dim=2),), block_dims=(1, 2))


def test_embedding_spectrum_known_cases():
    wn = embedding_spectrum(FactorCovariance("white_noise"), (8,))
    assert np.allclose(wn.eigenvalues, 1.0)
    # H = 1/2 increments are white noise too
    half = embedding_spectrum(_fgn(0.5), (8,))
    assert np.allclose(half.eigenvalues, 1.0)
    rough = embedding_spectrum(_fgn(0.9), (8,))
    assert rough.min_eigenvalue >= 0.0
    assert rough.nonnegative
    assert rough.embedded_shape == (14,)


def test_embedding_spectrum_matches_dense_circulant():
    # spectrum of the embedded sequence == eigenvalues of the circulant matrix
    model = _fgn(0.8)
    rep = embedding_spectrum(model, (6,))
    m = rep.embedded_shape[0]
    first_row = np.array(
        [eval_factor(model, (min(k, m - k),)) for k in range(m)]
    )
    circ = np.array([np.roll(first_row, i) for i in range(m)])
    dense_eigs = np.sort(np.linalg.eigvalsh(circ))
    assert np.allclose(np.sort(rep.eigenvalues), dense_eigs, atol=1e-10)


def test_classifier_metadata():
    assert decay_exponent(_fgn(0.9)) == pytest.approx(0.2)
    assert decay_exponent(_cauchy(1.3)) == pytest.approx(1.3)
    assert decay_exponent(FactorCovariance("exponential", scale=1.0)) == np.inf
    assert is_nonnegative(_fgn(0.3)) is False
    assert is_nonnegative(_fgn(0.7)) is True
    tab = FactorCovariance("tabulated", table={(0,): 1.0})
    assert decay_exponent(tab) is None
