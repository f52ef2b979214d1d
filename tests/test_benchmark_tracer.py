"""The benchmark's tracer still fits latfield.

perfbench/tracing.py wraps latfield's module-level names from outside the
package and reads attributes of what they return.  This test installs it
on a tiny separable experiment, a tiny additive experiment and a q=2
chaos report, so a refactor that drops a wrapped name, stops calling it
on its path, or drops a Sampler attribute the tracer reads fails here
rather than in a benchmark run.  perfbench/ is only read, never changed.
"""
import importlib.util
import json
from pathlib import Path

import pytest

import latfield.chaoscalc
import latfield.cli
import latfield.fieldsim
import latfield.harness
import latfield.oracle
from latfield.covariance import FGN, SEPARABLE, CompositeCovariance, FactorCovariance
from latfield.fieldsim import LatticeSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

MODULES = {
    "chaoscalc": latfield.chaoscalc,
    "cli": latfield.cli,
    "fieldsim": latfield.fieldsim,
    "harness": latfield.harness,
    "oracle": latfield.oracle,
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config(label, covariance, ladder):
    return json.dumps({
        "schema": 1,
        "label": label,
        "covariance": covariance,
        "phi": {"kind": "pure", "q": 2},
        "lattice": {"ladder": ladder},
        "replicates": 100,
        "seed": 5,
        "outputs": ["normality"],
    })


def test_tracer_wraps_every_layer(tmp_path):
    tracing = _load_tracing()
    separable = {"structure": "separable",
                 "factors": [{"family": "fgn", "hurst": 0.7},
                             {"family": "cauchy", "exponent": 1.5}]}
    additive = {"structure": "additive",
                "factors": [{"family": "cauchy", "exponent": 0.48},
                            {"family": "cauchy", "exponent": 3.0}],
                "weights": [0.1, 0.9]}
    paths = []
    for label, cov in (("sep", separable), ("add", additive)):
        path = tmp_path / f"{label}.yaml"
        path.write_text(_config(label, cov, [[8, 6]]))
        paths.append(path)
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _, _ in tracing._SPANS}

    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        for path in paths:
            argv = ["experiment", "--config", str(path), "--out", str(tmp_path / "out")]
            assert latfield.cli.main(argv) == 0
        cov = CompositeCovariance(SEPARABLE, (FactorCovariance(FGN, hurst=0.7),
                                              FactorCovariance(FGN, hurst=0.3)))
        latfield.chaoscalc.chaos_report(cov, LatticeSpec(((16,), (8,))), 2)
    finally:
        tracer.uninstall()
    assert all(getattr(MODULES[m], a) is f for (m, a), f in originals.items())

    names = {span[0] for span in tracer.spans}
    for name in ("covariance.embedding", "fieldsim.build_sampler", "fieldsim.draw",
                 "functionals.evaluate", "harness.draw_phase", "harness.run_experiment",
                 "harness.normality_report", "harness.exact_moments",
                 "chaoscalc.chaos_report", "cli.parse_config", "cli.persist_result"):
        assert name in names, name
    # both samplers embed each factor on its own: 14 and 10 points on 8x6
    points = [span[5]["points"] for span in tracer.spans
              if span[0] == "covariance.embedding"]
    assert points == [14, 10, 14, 10]

    trace = tmp_path / "trace.json"
    tracer.write(trace)
    metrics = tracing.layer_metrics([json.loads(trace.read_text())])
    assert metrics["fieldsim.draw_samples"] == 200
    # 100 draws each: the separable one takes two normals per point of its
    # 14x10 product embedding, the additive one per point of 14 + 10
    normals = 100 * 2 * 14 * 10 + 100 * 2 * (14 + 10)
    assert metrics["fieldsim.normals_per_replicate"] == pytest.approx(normals / 200)
    assert metrics["fieldsim.kept_fraction"] == pytest.approx(200 * 48 / normals)
    assert metrics["fieldsim.sampler_mb"] == pytest.approx(14 * 10 * 8 / 1e6)
    assert metrics["chaoscalc.chaos_report_s"] > 0.0


def test_tracer_times_the_indicator_variance(tmp_path):
    # the harness takes every exact variance through variance_phi, so an
    # indicator rung records its exact-moments span too
    tracing = _load_tracing()
    doc = json.loads(_config("ind", {"structure": "separable",
                                     "factors": [{"family": "white_noise"}]}, [[16]]))
    doc["phi"] = {"kind": "indicator", "level": 0.0}
    path = tmp_path / "ind.yaml"
    path.write_text(json.dumps(doc))
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        argv = ["experiment", "--config", str(path), "--out", str(tmp_path / "out")]
        assert latfield.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert "harness.exact_moments" in {span[0] for span in tracer.spans}
