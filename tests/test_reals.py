"""Every public entry that takes a real argument checks it by its
check_number rule: NaN, an infinity, a boolean or a value outside the
argument's range is one ModelError keyed by the argument's name."""
import numpy as np
import pytest

from latfield._errors import ModelError
from latfield.chaoscalc import gamma_quotient
from latfield.covariance import GNEITING, CompositeCovariance, FactorCovariance, gneiting_sandwich
from latfield.harness import is_gaussian, normality_report, rate_fit
from latfield.ratelab import fbs_regime, rate_g

FGN = FactorCovariance("fgn", hurst=0.7)
GNEITING_MODEL = CompositeCovariance(GNEITING, (FactorCovariance("cauchy", exponent=1.0),
                                                FactorCovariance("cauchy", exponent=0.5)))
REPORT = normality_report(np.random.default_rng(5).standard_normal(200))

HURST_OUTSIDE = [(0, "must lie in (0, 1), got 0.0"), (1, "must lie in (0, 1), got 1.0")]

# (entry, key, call with the value, (value, message) of each value outside its range)
ENTRIES = [
    ("gamma_quotient", "weight", lambda v: gamma_quotient(FGN, (8,), 2, v),
     [(0.0, "must be positive, got 0.0"), (-0.5, "must be positive, got -0.5")]),
    ("gneiting_sandwich", "domain_diameter2",
     lambda v: gneiting_sandwich(GNEITING_MODEL, (1, 0), v),
     [(-3.0, "must be at least 0.0, got -3.0"), (-0.5, "must be at least 0.0, got -0.5")]),
    ("is_gaussian", "alpha", lambda v: is_gaussian(REPORT, v),
     [(0, "must lie in (0, 1), got 0.0"), (2, "must lie in (0, 1), got 2.0")]),
    ("rate_fit", "series[2].size", lambda v: rate_fit([(10, 1.0), (20, 0.5), (v, 0.25), (80, 0.1)]),
     [(0, "must be positive, got 0.0"), (-40, "must be positive, got -40.0")]),
    ("rate_fit", "series[2].value", lambda v: rate_fit([(10, 1.0), (20, 0.5), (40, v), (80, 0.1)]),
     [(0.0, "must be positive, got 0.0"), (-0.25, "must be positive, got -0.25")]),
    ("rate_g", "n", lambda v: rate_g(2, 0.3, v),
     [(1, "must lie in (1, inf), got 1.0"), (0.5, "must lie in (1, inf), got 0.5")]),
    ("rate_g", "hurst", lambda v: rate_g(2, v, 100.0), HURST_OUTSIDE),
    ("fbs_regime", "alpha", lambda v: fbs_regime(v, 0.3, 2), HURST_OUTSIDE),
    ("fbs_regime", "beta", lambda v: fbs_regime(0.3, v, 2), HURST_OUTSIDE),
]


@pytest.mark.parametrize("entry, key, call, value, message", [
    pytest.param(entry, key, call, value, message, id=f"{entry}-{key}-{value!r}")
    for entry, key, call, outside in ENTRIES
    for value, message in [(float("nan"), "must be a finite number, got nan"),
                           (float("inf"), "must be a finite number, got inf"),
                           (True, "expected a number, got bool"), *outside]
])
def test_every_real_is_refused_by_its_key(entry, key, call, value, message):
    with pytest.raises(ModelError) as err:
        call(value)
    assert str(err.value) == f"{key}: {message}"
    assert err.value.violations == [(key, message)]
