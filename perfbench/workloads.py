"""The benchmark's four workloads: their inputs, references and checks.

This module does not import latfield.  ``spec`` turns a workload name and
a seed into plain data, ``references`` computes the values the program
must reproduce (with refs.py, in the process that launches the workload),
and the ``check_*`` functions compare one operation's outputs with them.
worker.py feeds the same data to latfield.

Why each workload exists, and which layer it stresses, is in README.md.
"""
from __future__ import annotations

import math
import random

import numpy as np

import refs

NAMES = ("mc-separable", "mc-additive", "mc-small", "chaos-ladder")

#: statistical checks allow this many jackknife standard errors
Z_CHECK = 5.0
#: relative tolerance of exact values against their references
EXACT_RTOL = 1e-9
#: relative tolerance of the pairing-oracle cases (criterion 03's)
ORACLE_RTOL = 1e-10
#: largest factor whose contraction norm is checked against a dense product
DENSE_CHECK_LIMIT = 2048
#: seed of the mc-small indicator experiments, which fail on every seed
INDICATOR_SEED = 20261017

# ---------------------------------------------------------------------------
# inputs


def _factor(family, **params):
    return {"family": family, **params}


def _experiment(label, covariance, phi, ladder, replicates, seed, outputs=("normality",),
                growth=None, expect_non_gaussian=False, known_fault=None):
    doc = {
        "schema": 1,
        "label": label,
        "covariance": covariance,
        "phi": phi,
        "lattice": {"ladder": [[list(b) for b in rung] for rung in ladder]},
        "replicates": replicates,
        "seed": seed,
        "outputs": list(outputs),
    }
    if growth is not None:
        doc["growth"] = list(growth)
    return {
        "config": doc,
        "expect_non_gaussian": expect_non_gaussian,
        "known_fault": known_fault,
    }


_H2 = {"kind": "pure", "q": 2}
_LEVEL0 = {"kind": "indicator", "level": 0.0}
_INDICATOR_FAULT = (
    "harness._exact_moments labels the q <= 20 truncation of the indicator "
    "variance exact and drops its tail bound"
)


def spec(name: str, seed: int) -> dict:
    """The workload's inputs as plain data; the same seed gives the same data."""
    rng = random.Random(f"{name}:{seed}")
    exp_seed = rng.getrandbits(63)
    if name == "mc-separable":
        cov = {"structure": "separable",
               "factors": [_factor("cauchy", exponent=0.3),
                           _factor("cauchy", exponent=0.4)]}
        return {"experiments": [
            _experiment("mc-separable", cov, _H2, [[(256,), (256,)]], 1000, exp_seed,
                        expect_non_gaussian=True),
        ]}
    if name == "mc-additive":
        cov = {"structure": "additive",
               "factors": [_factor("cauchy", exponent=0.48),
                           _factor("cauchy", exponent=3.0)],
               "weights": [0.1, 0.9]}
        ladder = [[(64,), (23,)], [(256,), (64,)], [(1024,), (181,)]]
        return {"experiments": [
            _experiment("mc-additive", cov, _H2, ladder, 100, exp_seed,
                        outputs=("normality", "kurtosis_series"), growth=(1.0, 0.75)),
        ]}
    if name == "mc-small":
        white = {"structure": "separable", "factors": [_factor("white_noise")]}
        expfgn = {"structure": "separable",
                  "factors": [_factor("exponential", scale=2.0),
                              _factor("fgn", hurst=0.3)]}
        reps = 2000
        return {"experiments": [
            _experiment("white-h2", white, _H2, [[(1000,)]], reps, exp_seed),
            _experiment("white-indicator", white, _LEVEL0, [[(1000,)]], reps,
                        INDICATOR_SEED, known_fault=_INDICATOR_FAULT),
            _experiment("expfgn-h2", expfgn, _H2, [[(64,), (64,)]], reps, exp_seed + 1),
            _experiment("expfgn-indicator", expfgn, _LEVEL0, [[(64,), (64,)]], reps,
                        INDICATOR_SEED, known_fault=_INDICATOR_FAULT),
        ]}
    if name == "chaos-ladder":
        # the seed moves the model parameters, never the amount of work
        def jitter(x, width):
            return round(x + rng.uniform(-width, width), 6)

        h_long, h_short = jitter(0.7, 0.02), jitter(0.3, 0.02)
        ladder = [((_factor("fgn", hurst=h_long), n), (_factor("fgn", hurst=h_short), 64), 2)
                  for n in (512, 1024, 2048, 4096)]
        ladder += [((_factor("fgn", hurst=h_long), n), (_factor("fgn", hurst=h_short), 32), 3)
                   for n in (64, 128, 256)]
        scale = rng.uniform(1.0, 2.0)
        models = [
            [_factor("white_noise")],
            [_factor("fgn", hurst=jitter(0.75, 0.02))],
            [_factor("cauchy", exponent=jitter(0.6, 0.05))],
            [_factor("tabulated", table=[round(math.exp(-k / scale), 6) for k in range(4)])],
            [_factor("fgn", hurst=jitter(0.3, 0.02)), _factor("fgn", hurst=jitter(0.9, 0.02))],
        ]
        shapes_1d = [(1,), (2,), (3,), (4,)]
        shapes_2d = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (4, 1), (1, 4)]
        oracle = [
            {"factors": factors, "sizes": sizes, "q": q}
            for factors in models
            for sizes in (shapes_1d if len(factors) == 1 else shapes_2d)
            for q in (1, 2, 3)
        ]
        return {"chaos": [{"factors": [a[0], b[0]], "sizes": [a[1], b[1]], "q": q}
                          for a, b, q in ladder],
                "oracle": oracle}
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def operations_per_round(workload: dict) -> int:
    if "experiments" in workload:
        return sum(len(e["config"]["lattice"]["ladder"]) for e in workload["experiments"])
    return len(workload["chaos"]) + len(workload["oracle"])


# ---------------------------------------------------------------------------
# references


def _ref_factor(doc):
    family = doc["family"]
    if family == "fgn":
        return refs.fgn(doc["hurst"])
    if family == "cauchy":
        return refs.cauchy(doc["exponent"])
    if family == "exponential":
        return refs.exponential(doc["scale"])
    if family == "white_noise":
        return refs.white_noise()
    if family == "tabulated":
        return refs.table(doc["table"])
    raise ValueError(f"no reference for family {family!r}")


def _rung_reference(cov, phi, sizes):
    factors = [_ref_factor(f) for f in cov["factors"]]
    if cov["structure"] == "additive":
        w1, w2 = cov["weights"]
        grid = refs.additive_lag_grid(*factors, w1, w2, *sizes)
    else:
        grid = refs.separable_lag_grid(factors, sizes)
    n_total = math.prod(sizes)
    if phi["kind"] == "pure":
        return {"mean": 0.0, "variance": refs.hermite_variance(grid, phi["q"])}
    if phi["level"] != 0.0:
        raise ValueError("indicator references are written for level 0")
    return {"mean": 0.5 * n_total, "variance": refs.indicator_variance_level0(grid)}


def _chaos_reference(item):
    factors, sizes, q = [_ref_factor(f) for f in item["factors"]], item["sizes"], item["q"]
    out = {"variance": refs.hermite_variance(refs.separable_lag_grid(factors, sizes), q)}
    if max(sizes) <= DENSE_CHECK_LIMIT:
        traces = [refs.factor_traces(refs.dense_matrix(c, n), q) for c, n in zip(factors, sizes)]
        out["norms"] = {str(r): math.prod(t["contraction"][r] for t in traces)
                        for r in range(1, q)}
        out["fourth_cumulant"] = refs.fourth_cumulant(traces, q)
        out["tv_bound"] = refs.tv_bound(traces, q)
    return out


def _oracle_reference(item):
    factors = [_ref_factor(f) for f in item["factors"]]
    pts = [np.array(p) for p in np.ndindex(*item["sizes"])]
    matrix = np.array([[math.prod(float(c(a[k] - b[k])) for k, c in enumerate(factors))
                        for b in pts] for a in pts])
    m2, m4 = refs.quadrature_moments(matrix, item["q"])
    return {"m2": m2, "m4": m4, "fourth_cumulant": (m4 - 3.0 * m2**2) / m2**2}


def references(workload: dict) -> dict:
    """Reference values for every operation, as JSON-ready data."""
    refs.self_test()
    if "experiments" in workload:
        return {"experiments": [
            [_rung_reference(e["config"]["covariance"], e["config"]["phi"],
                             [b[0] for b in rung])
             for rung in e["config"]["lattice"]["ladder"]]
            for e in workload["experiments"]
        ]}
    items = workload["chaos"]
    chaos = [_chaos_reference(item) for item in items]
    # kappa_4 of the long-memory factor ladder decreases with the window;
    # a rung past the dense check must stay below the rung before it
    for i in range(1, len(items)):
        if "fourth_cumulant" not in chaos[i] and items[i - 1]["q"] == items[i]["q"]:
            chaos[i]["fourth_cumulant_below"] = chaos[i - 1]["fourth_cumulant"]
    return {"chaos": chaos, "oracle": [_oracle_reference(item) for item in workload["oracle"]]}


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the outputs are right


def _close(got, want, rtol):
    return got is not None and abs(got - want) <= rtol * max(1.0, abs(want))


def check_rung(rung: dict, ref: dict, replicates: int, expect_non_gaussian: bool):
    """One Monte Carlo rung of a persisted result JSON."""
    problems = []
    if rung["variance_source"] != "exact":
        problems.append(f"variance source {rung['variance_source']!r}, expected 'exact'")
    elif not _close(rung["exact_variance"], ref["variance"], EXACT_RTOL):
        problems.append(f"exact variance {rung['exact_variance']!r}, "
                        f"reference {ref['variance']!r}")
    if not _close(rung["exact_mean"], ref["mean"], EXACT_RTOL):
        problems.append(f"exact mean {rung['exact_mean']!r}, reference {ref['mean']!r}")
    s = rung["stats"]
    if s["n"] != replicates or rung["replicates"] != replicates:
        problems.append(f"{s['n']} samples, expected {replicates}")
    if not abs(s["mean"]) <= Z_CHECK * s["mean_se"]:
        problems.append(f"standardized mean {s['mean']:.4f} +- {s['mean_se']:.4f}")
    if not abs(s["variance"] - 1.0) <= Z_CHECK * s["variance_se"]:
        problems.append(f"standardized variance {s['variance']:.4f} +- {s['variance_se']:.4f}")
    if expect_non_gaussian and rung["gaussian"]:
        problems.append("verdict gaussian, the non-central case predicts non_gaussian")
    return problems


def check_chaos(out: dict, ref: dict):
    """One chaos_report rung: variance, contraction norms, kappa_4, TV bound."""
    problems = []
    if not _close(out["variance"], ref["variance"], EXACT_RTOL):
        problems.append(f"variance {out['variance']!r}, reference {ref['variance']!r}")
    if "norms" in ref:
        for r, want in ref["norms"].items():
            if not _close(out["norms"].get(r), want, EXACT_RTOL):
                problems.append(f"contraction r={r} {out['norms'].get(r)!r}, reference {want!r}")
        if not out["fourth_exact"]:
            problems.append("fourth cumulant reported as a bound, expected exact")
        for key in ("fourth_cumulant", "tv_bound"):
            if not _close(out[key], ref[key], EXACT_RTOL):
                problems.append(f"{key} {out[key]!r}, reference {ref[key]!r}")
        return problems
    # past the dense check: properties the q = 2 diagnostics must have
    var, p1, k4 = out["variance"], out["norms"].get("1"), out["fourth_cumulant"]
    if p1 is None or not 0.0 < p1 <= (var / 2.0) ** 2:
        problems.append(f"contraction {p1!r} outside (0, (Var/2)^2]")
    elif not _close(k4, 48.0 * p1 / var**2, 1e-12):
        problems.append(f"fourth cumulant {k4!r} is not 48 p1 / Var^2")
    if not 0.0 < k4 < ref["fourth_cumulant_below"]:
        problems.append(f"fourth cumulant {k4!r} does not decrease below "
                        f"{ref['fourth_cumulant_below']!r}")
    if out["tv_bound"] is None or not 0.0 < out["tv_bound"] <= 1.0:
        problems.append(f"tv bound {out['tv_bound']!r} outside (0, 1]")
    return problems


def check_oracle(out: dict, ref: dict):
    """One pairing-oracle case: oracle moments, variance and kappa_4."""
    problems = []
    for key, want in (("m2", ref["m2"]), ("m4", ref["m4"]), ("variance", ref["m2"]),
                      ("fourth_cumulant", ref["fourth_cumulant"])):
        if not _close(out[key], want, ORACLE_RTOL):
            problems.append(f"{key} {out[key]!r}, reference {want!r}")
    if not out["fourth_exact"]:
        problems.append("fourth cumulant reported as a bound, expected exact")
    return problems
