import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from latfield._errors import ConfigError, ModelError
from latfield.cli import (
    main,
    parse_config,
    persist_result,
    serialize_config,
)
from latfield.harness import config_fingerprint, run_experiment
from latfield.hermite import HermiteSpec

MINIMAL = """\
schema: 1
label: smoke
covariance:
  structure: separable
  factors:
    - family: white_noise
phi:
  kind: pure
  q: 2
lattice:
  ladder:
    - [16]
    - [32]
replicates: 120
seed: 7
outputs: [normality]
"""

ADDITIVE = """\
schema: 1
label: additive-sample
covariance:
  structure: additive
  factors:
    - family: cauchy
      exponent: 0.48
    - family: cauchy
      exponent: 3.0
  weights: [0.1, 0.9]
phi:
  kind: pure
  q: 2
lattice:
  ladder:
    - [8, 8]
replicates: 150
seed: 3
growth: [1.0, 0.75]
"""


def test_minimal_config_round_trips():
    config = parse_config(MINIMAL)
    assert config.label == "smoke"
    assert config.replicates == 120
    assert [l.n_total for l in config.ladder] == [16, 32]
    again = parse_config(serialize_config(config))
    assert again == config
    assert config_fingerprint(again) == config_fingerprint(config)


def test_additive_config_round_trips():
    config = parse_config(ADDITIVE)
    assert config.covariance.weights == (0.1, 0.9)
    assert config.growth == (1.0, 0.75)
    assert parse_config(serialize_config(config)) == config


def test_unknown_key_is_reported_with_its_path():
    bad = MINIMAL.replace("      hurst: 0.3", "")
    bad = bad.replace("    - family: white_noise",
                      "    - family: fgn\n      hurstt: 0.3")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = str(err.value)
    assert "covariance.factors[0].hurstt" in text and "unknown key" in text


def test_constraint_violation_names_the_block():
    bad = MINIMAL.replace(
        "    - family: white_noise",
        "    - family: cauchy\n      exponent: -1",
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any(
        "covariance.factors[0].exponent" in v for v in err.value.violations
    )


def test_all_violations_are_collected():
    bad = MINIMAL.replace("seed: 7", "seed: -4")
    bad = bad.replace("  kind: pure\n  q: 2", "  kind: pure\n  q: 0")
    bad = bad.replace("outputs: [normality]", "outputs: [normality, plots]")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    joined = str(err.value)
    assert "seed" in joined and "phi.q" in joined and "outputs[1]" in joined
    assert len(err.value.violations) == 3


def test_integer_keys_reject_fractional_numbers():
    bad = (MINIMAL.replace("q: 2", "q: 2.7")
           .replace("replicates: 120", "replicates: 200.9")
           .replace("seed: 7", "seed: 11.5")
           .replace("- [16]", "- [[64.5]]")
           .replace("family: white_noise", "family: white_noise\n      dim: 1.5"))
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert sorted(err.value.violations) == sorted([
        "covariance.factors[0].dim: must be an integer, got 1.5",
        "phi.q: must be an integer, got 2.7",
        "lattice.ladder[0][0][0]: must be an integer, got 64.5",
        "replicates: must be an integer, got 200.9",
        "seed: must be an integer, got 11.5",
    ])
    iso = MINIMAL.replace(
        "  structure: separable\n  factors:\n    - family: white_noise\n",
        "  structure: isotropic\n  factors:\n    - family: cauchy\n"
        "      exponent: 0.5\n      dim: 2\n  block_dims: [1.5, 1]\n",
    )
    with pytest.raises(ConfigError) as err:
        parse_config(iso)
    assert err.value.violations == ["covariance.block_dims[0]: must be an integer, got 1.5"]
    # integral floats are still read as integers
    config = parse_config(MINIMAL.replace("seed: 7", "seed: 7.0"))
    assert config.seed == 7 and isinstance(config.seed, int)


def test_float_keys_reject_non_finite_numbers():
    # every violation is reported in one pass, each with its path
    bad = (ADDITIVE.replace("exponent: 0.48", "exponent: .nan")
           .replace("exponent: 3.0", "exponent: .inf")
           .replace("growth: [1.0, 0.75]", "growth: [.nan, .inf]"))
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert sorted(err.value.violations) == sorted([
        "covariance.factors[0].exponent: must be a finite number, got nan",
        "covariance.factors[1].exponent: must be a finite number, got inf",
        "growth[0]: must be a finite number, got nan",
        "growth[1]: must be a finite number, got inf",
    ])
    with pytest.raises(ConfigError) as err:
        parse_config(ADDITIVE.replace("weights: [0.1, 0.9]", "weights: [.nan, 0.9]"))
    assert err.value.violations == ["covariance.weights[0]: must be a finite number, got nan"]
    for factor, path in (("family: exponential\n      scale: .nan", "scale"),
                         ("family: tabulated\n      table:\n        - {lag: 0, value: .inf}",
                          "table[0].value")):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("family: white_noise", factor))
        assert err.value.violations[0].startswith(f"covariance.factors[0].{path}: "
                                                  "must be a finite number")
    for level, shown in ((".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("kind: pure\n  q: 2", f"kind: indicator\n  level: {level}"))
        assert err.value.violations == [f"phi.level: must be a finite number, got {shown}"]


def test_tabulated_factor_round_trips():
    text = MINIMAL.replace(
        "    - family: white_noise",
        "    - family: tabulated\n"
        "      table:\n"
        "        - {lag: 0, value: 1.0}\n"
        "        - {lag: 1, value: 0.5}\n",
    ).replace("    - [16]\n    - [32]", "    - [2]")
    config = parse_config(text)
    factor = config.covariance.factors[0]
    assert factor.table == {(0,): 1.0, (1,): 0.5}
    assert parse_config(serialize_config(config)) == config


def test_persist_is_append_only(tmp_path):
    config = parse_config(MINIMAL)
    result = run_experiment(config)
    first = persist_result(result, tmp_path, config=config)
    second = persist_result(result, tmp_path, config=config)
    assert first.result_path != second.result_path
    assert second.result_path.endswith("smoke-2.json")
    for manifest in (first, second):
        doc = json.loads(Path(manifest.result_path).read_text())
        assert doc["config_hash"] == manifest.config_hash
        # CSV: header plus one row per rung
        lines = Path(manifest.csv_path).read_text().strip().splitlines()
        assert len(lines) == 1 + len(config.ladder)
        assert lines[0].startswith("n,mean,variance,skewness,kurtosis")


def test_manifest_hash_recomputes_from_the_stored_config(tmp_path):
    config = parse_config(MINIMAL)
    result = run_experiment(config)
    manifest = persist_result(result, tmp_path, config=config)
    doc = json.loads(Path(manifest.result_path).read_text())
    import yaml

    rebuilt = parse_config(yaml.safe_dump(doc["config"]))
    assert config_fingerprint(rebuilt) == manifest.config_hash


def test_result_json_has_no_timestamps(tmp_path):
    config = parse_config(MINIMAL)
    result = run_experiment(config)
    manifest = persist_result(result, tmp_path, config=config)
    text = Path(manifest.result_path).read_text()
    assert "started" not in text and "finished" not in text
    mdoc = json.loads(Path(manifest.manifest_path).read_text())
    assert mdoc["started"] and mdoc["finished"]


def test_a_custom_phi_config_is_not_stored(tmp_path):
    # a custom phi has no config form, so its result would carry a config
    # that cannot be parsed back: refused before anything is written
    config = dataclasses.replace(parse_config(MINIMAL),
                                 phi=HermiteSpec("custom", func=np.tanh))
    with pytest.raises(ModelError, match="custom phi has no config form"):
        serialize_config(config)
    result = run_experiment(config)
    out = tmp_path / "out"
    with pytest.raises(ModelError, match="custom phi"):
        persist_result(result, out, config=config)
    assert not out.exists()


def test_experiment_command_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    code = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict:" in text
    assert (out / "smoke.json").exists()
    assert (out / "smoke.csv").exists()
    assert (out / "smoke.manifest.json").exists()


def test_experiment_results_are_thread_count_invariant(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL)
    outs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out = tmp_path / sub
        code = main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--threads", threads])
        assert code == 0
        outs.append((out / "smoke.json").read_bytes())
    assert outs[0] == outs[1]


def test_seed_override_changes_the_run(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(out_b),
                 "--seed", "8"]) == 0
    a = json.loads((out_a / "smoke.json").read_text())
    b = json.loads((out_b / "smoke.json").read_text())
    assert a["config_hash"] != b["config_hash"]
    assert a["rungs"][0]["raw_mean"] != b["rungs"][0]["raw_mean"]


def test_validate_command_reports_spectra(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL)
    assert main(["validate", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "config ok" in text
    assert "min eigenvalue" in text


def test_validate_reports_the_embedding_the_sampler_uses(tmp_path, capsys):
    # the 2-D factor's minimal 30x30 embedding is negative; the sampler
    # draws on the 60x60 one after one doubling
    text = MINIMAL.replace(
        "    - family: white_noise",
        "    - family: cauchy\n"
        "      exponent: 0.5\n"
        "      dim: 2\n"
        "    - family: fgn\n"
        "      hurst: 0.3",
    ).replace("    - [16]\n    - [32]", "    - [[16, 16], 8]")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("  embedding 0: shape [60, 60], doublings 1,")
               for line in lines)
    (rung,) = json.loads((tmp_path / "smoke-spectrum.json").read_text())["spectra"]
    assert rung["method"] == "kronecker_circulant"
    assert rung["min_eigenvalue"] >= -1e-10
    first = rung["embeddings"][0]
    assert first["shape"] == [60, 60] and first["doublings"] == 1
    assert first["min_eigenvalue"] >= -1e-10
    assert f"min eigenvalue {first['min_eigenvalue']:.3e}" in "\n".join(lines)
    # an additive model embeds each block on its own: one line per block
    cfg.write_text(ADDITIVE)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("rung 0 sizes [8, 8]: method additive_circulant,")
               for line in lines)
    embedding_lines = [line for line in lines if line.startswith("  embedding ")]
    assert [line.split(",")[0] for line in embedding_lines] == [
        "  embedding 0: shape [14]", "  embedding 1: shape [14]"]
    (rung,) = json.loads((tmp_path / "additive-sample-spectrum.json").read_text())["spectra"]
    assert rung["method"] == "additive_circulant"
    assert [e["shape"] for e in rung["embeddings"]] == [[14], [14]]


def test_validate_rejects_bad_configs_with_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("q: 2", "q: 0"))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "phi.q" in capsys.readouterr().err


def test_numerical_failures_exit_3(tmp_path, capsys):
    text = MINIMAL.replace(
        "    - family: white_noise",
        "    - family: tabulated\n"
        "      table:\n"
        "        - {lag: 0, value: 1.0}\n"
        "        - {lag: 1, value: 0.6}\n"
        "        - {lag: 2, value: -0.5}\n",
    ).replace("    - [16]\n    - [32]", "    - [3]")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_chaos_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    assert main(["chaos", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "kappa4" in text
    doc = json.loads((out / "smoke-chaos.json").read_text())
    assert doc["q"] == 2 and len(doc["rungs"]) == 2
    # white noise at n=16: variance 2n, kurtosis 12/n
    assert doc["rungs"][0]["variance"] == pytest.approx(32.0)
    assert doc["rungs"][0]["fourth_cumulant"] == pytest.approx(12.0 / 16)


def test_classify_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(ADDITIVE)
    assert main(["classify", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "verdict: additive_conditional" in text
    assert "dominant block: 1" in text


def test_rates_command(tmp_path, capsys):
    assert main(["rates", "--q", "2", "--hurst", "0.3,0.75",
                 "--sizes", "100,10000"]) == 0
    text = capsys.readouterr().out
    assert "H=0.3" in text and "H=0.75" in text
    assert main(["rates", "--q", "2", "--alpha", "0.3", "--beta", "0.9"]) == 0
    assert "case 4" in capsys.readouterr().out
    assert main(["rates", "--q", "2", "--alpha", "0.3"]) == 2
    assert main(["rates", "--q", "2"]) == 2
