"""Every public entry that takes a count checks it by its rule table: a
boolean, a fractional value or a value just outside the count's range is
one ModelError keyed by the argument's name, and an integral float is
taken as its int."""
import numpy as np
import pytest

from latfield._errors import ModelError
from latfield.chaoscalc import (
    additive_variance,
    chaos_report,
    contraction_norm,
    cq_constant,
    fourth_cumulant,
    gamma_quotient,
    tv_bound,
    variance_hermite,
)
from latfield.covariance import (
    ADDITIVE,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
    embedded_sizes,
    embedding_spectrum,
)
from latfield.fieldsim import SEED_LIMIT, LatticeSpec, build_sampler, draw, draw_pairs
from latfield.harness import ExperimentConfig, run_experiment
from latfield.hermite import HermiteSpec, hermite_eval, hermite_terms
from latfield.oracle import WickProblem, oracle_functional_moment
from latfield.ratelab import breuer_major_sigma2, classify, fbs_regime, rate_g

FGN = FactorCovariance("fgn", hurst=0.7)
CAUCHY = FactorCovariance("cauchy", exponent=0.5)
SEP = CompositeCovariance(SEPARABLE, (FGN, CAUCHY))
ADD = CompositeCovariance(ADDITIVE, (FGN, CAUCHY), weights=(0.5, 0.5))
LAT = LatticeSpec(((4,), (3,)))
ONE = LatticeSpec(((2,),))
WHITE = CompositeCovariance(SEPARABLE, (FactorCovariance("white_noise"),))
SAMPLER = build_sampler(SEP, LAT)
CONFIG = ExperimentConfig(WHITE, HermiteSpec("pure", q=2), (LatticeSpec(((16,),)),), 10, 7,
                          outputs=())

# (entry, key, call with the count, the values just outside its range)
ENTRIES = [
    ("variance_hermite", "q", lambda v: variance_hermite(SEP, LAT, v), (0, 31)),
    ("fourth_cumulant", "q", lambda v: fourth_cumulant(SEP, LAT, v), (0, 31)),
    ("chaos_report", "q", lambda v: chaos_report(SEP, LAT, v), (0, 31)),
    ("contraction_norm", "q", lambda v: contraction_norm(SEP, LAT, v, 1), (0, 31)),
    ("contraction_norm", "r", lambda v: contraction_norm(SEP, LAT, 3, v), (0, 3)),
    ("additive_variance", "q", lambda v: additive_variance(ADD, LAT, v), (0, 31)),
    ("gamma_quotient", "q", lambda v: gamma_quotient(FGN, (8,), v), (0, 31)),
    ("cq_constant", "q", cq_constant, (1, 31)),
    ("tv_bound", "q", lambda v: tv_bound(SEP, LAT, v), (1, 31)),
    ("oracle_functional_moment", "q",
     lambda v: oracle_functional_moment(WHITE, ONE, v, 2), (0, 31)),
    ("oracle_functional_moment", "order",
     lambda v: oracle_functional_moment(WHITE, ONE, 2, v), (-1,)),
    ("WickProblem", "monomial[0].q", lambda v: WickProblem(np.eye(1), ((0, v),)), (-1, 31)),
    ("WickProblem", "monomial[0].point", lambda v: WickProblem(np.eye(1), ((v, 2),)), (-1, 1)),
    ("classify", "rank", lambda v: classify(SEP, v), (0, 31)),
    ("rate_g", "q", lambda v: rate_g(v, 0.3, 100.0), (1, 31)),
    ("fbs_regime", "q", lambda v: fbs_regime(0.3, 0.4, v), (1, 31)),
    ("hermite_terms", "q", lambda v: list(hermite_terms(v, 0.5)), (-1, 31)),
    ("hermite_eval", "q", lambda v: hermite_eval(v, 0.5), (-1, 31)),
    ("breuer_major_sigma2", "radius",
     lambda v: breuer_major_sigma2([FactorCovariance("exponential", scale=1.0)], [0, 0, 1], v),
     (-1,)),
    ("embedded_sizes", "doublings", lambda v: embedded_sizes((8,), v), (-1,)),
    ("embedded_sizes", "sizes[0]", lambda v: embedded_sizes((v,), 0), (0,)),
    ("embedding_spectrum", "doublings", lambda v: embedding_spectrum(FGN, (8,), v), (-1,)),
    ("draw", "seed", lambda v: draw(SAMPLER, v, 0), (-1, SEED_LIMIT)),
    ("draw", "replicate_id", lambda v: draw(SAMPLER, 7, v), (-1,)),
    ("draw_pairs", "seed", lambda v: draw_pairs(SAMPLER, v, 0, 1), (-1, SEED_LIMIT)),
    ("draw_pairs", "first_pair", lambda v: draw_pairs(SAMPLER, 7, v, 1), (-1,)),
    ("draw_pairs", "count", lambda v: draw_pairs(SAMPLER, 7, 0, v), (0,)),
    ("run_experiment", "threads", lambda v: run_experiment(CONFIG, v), (-1,)),
]


def _outside(low_high):
    """(value, message) of each value just outside a count's range: the
    first below it, any second above it."""
    low, *high = low_high
    yield low, f"must be at least {low + 1}, got {low}"
    for value in high:
        yield value, f"must be at most {value - 1}, got {value}"


@pytest.mark.parametrize("entry, key, call, value, message", [
    pytest.param(entry, key, call, value, message, id=f"{entry}-{key}-{value!r}")
    for entry, key, call, outside in ENTRIES
    for value, message in [(2.5, "must be an integer, got 2.5"),
                           (True, "expected a number, got bool"), *_outside(outside)]
])
def test_every_count_is_refused_by_its_key(entry, key, call, value, message):
    with pytest.raises(ModelError) as err:
        call(value)
    assert str(err.value) == f"{key}: {message}"
    assert err.value.violations == [(key, message)]


def test_an_integral_float_count_is_its_int():
    assert variance_hermite(SEP, LAT, 2.0) == variance_hermite(SEP, LAT, 2)
    assert contraction_norm(SEP, LAT, 3.0, 1.0) == contraction_norm(SEP, LAT, 3, 1)
    assert chaos_report(SEP, LAT, 3.0) == chaos_report(SEP, LAT, 3)
    assert classify(SEP, 2.0) == classify(SEP, 2)
    assert hermite_eval(3.0, 0.5) == hermite_eval(3, 0.5)
    moment = oracle_functional_moment(WHITE, ONE, 2, 4)
    assert oracle_functional_moment(WHITE, ONE, 2.0, 4.0) == moment
    assert embedded_sizes((8.0,), 1.0) == embedded_sizes((8,), 1) == (28,)
    field = draw(SAMPLER, 7.0, 3.0)
    assert (field.seed, field.replicate_id) == (7, 3)
    assert np.array_equal(field.values, draw(SAMPLER, 7, 3).values)
