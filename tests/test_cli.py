import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latfield._errors import ConfigError, ModelError
from latfield import cli, covariance, harness, hermite
from latfield.covariance import CompositeCovariance, FactorCovariance
from latfield.cli import (
    main,
    parse_config,
    persist_result,
    serialize_config,
)
from latfield.harness import (
    ExperimentResult,
    config_document,
    config_fingerprint,
    run_experiment,
)
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
    # a bad factor does not hide a bad weight
    with pytest.raises(ConfigError) as err:
        parse_config(ADDITIVE.replace("exponent: 0.48", "exponent: .nan")
                     .replace("weights: [0.1, 0.9]", "weights: [.nan, 0.9]"))
    assert sorted(err.value.violations) == [
        "covariance.factors[0].exponent: must be a finite number, got nan",
        "covariance.weights[0]: must be a finite number, got nan",
    ]
    for factor, path in (("family: exponential\n      scale: .nan", "scale"),
                         ("family: tabulated\n      table:\n        - {lag: 0, value: .inf}",
                          "table[(0,)]")):
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


def _config(covariance, phi="{kind: pure, q: 2}", ladder="[[4, 4], [8, 8]]"):
    return (f"schema: 1\nlabel: rt\ncovariance: {covariance}\nphi: {phi}\n"
            f"lattice: {{ladder: {ladder}}}\nreplicates: 100\nseed: 5\n")


_ROUND_TRIPS = {
    "separable fgn (x) exponential 2-D": _config(
        "{structure: separable, factors: [{family: fgn, hurst: 0.3},"
        " {family: exponential, scale: 2.5, dim: 2}]}", ladder="[[4, [3, 3]]]"),
    "gneiting cauchy, white noise": _config(
        "{structure: gneiting, factors: [{family: cauchy, exponent: 0.3},"
        " {family: white_noise}]}", phi="{kind: pure, q: 3}"),
    "additive fgn, tabulated": _config(
        "{structure: additive, factors: [{family: fgn, hurst: 0.7},"
        " {family: tabulated, table: [{lag: 0, value: 1.0}, {lag: [-1], value: 0.25}]}],"
        " weights: [0.25, 0.75]}", ladder="[[4, 2]]"),
    "isotropic cauchy": _config(
        "{structure: isotropic, factors: [{family: cauchy, exponent: 0.8, dim: 2}],"
        " block_dims: [1, 1]}"),
    "indicator, tabulated 2-D": _config(
        "{structure: separable, factors: [{family: tabulated, dim: 2, table: ["
        "{lag: [0, 0], value: 1.0}, {lag: [1, -1], value: 0.1}, {lag: [1, 1], value: 0.1},"
        " {lag: [1, 0], value: 0.2}, {lag: [0, 1], value: 0.3}]}]}",
        phi="{kind: indicator, level: -0.5}", ladder="[[[2, 2]]]"),
}


@pytest.mark.parametrize("text", list(_ROUND_TRIPS.values()), ids=list(_ROUND_TRIPS))
def test_every_family_kind_and_structure_round_trips(text):
    # every family, phi kind and structure: serialized from the tables
    # the parser reads, and parsed back to an equal config and the same text
    config = parse_config(text)
    again = parse_config(serialize_config(config))
    assert again == config
    assert serialize_config(again) == serialize_config(config)
    assert config_fingerprint(again) == config_fingerprint(config)


_FACTOR = "    - family: white_noise"
_TABLE = _FACTOR.replace("white_noise", "tabulated\n      table:\n        - {lag: 0, value: 1.0}")


@pytest.mark.parametrize("old, new, want", [
    (_FACTOR, "    - family: [fgn]", "covariance.factors[0].family: unknown family ['fgn']"),
    (_FACTOR, "    - family: {fgn: 1}", "covariance.factors[0].family: unknown family {'fgn': 1}"),
    ("schema: 1", "schema: true", "schema: unsupported schema version True"),
    (_FACTOR, _TABLE + "\n        - {lag: true, value: 0.5}",
     "covariance.factors[0].table[1].lag: lag must be an integer or list of integers"),
    (_FACTOR, _TABLE + "\n        - {lag: [false], value: 0.5}",
     "covariance.factors[0].table[1].lag: lag must be an integer or list of integers"),
    (_FACTOR, _TABLE + "\n        - {lag: 1, value: 0.5}\n        - {lag: -1, value: 0.1}",
     "covariance.factors[0]: a tabulated covariance must be even, "
     "but it holds 0.5 at lag (1,) and 0.1 at lag (-1,)"),
], ids=["family list", "family mapping", "schema true", "lag true", "lag [false]",
        "uneven table"])
def test_malformed_input_is_a_violation(tmp_path, capsys, old, new, want):
    # input that crashed the parser, or that a boolean read as a number
    # let through, is reported at its path (exit 2)
    text = MINIMAL.replace(old, new)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [want]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert f"  {want}\n" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, want", [
    (_FACTOR, "    - family: fgn\n      dim: 0\n      hurst: 1.5",
     ["covariance.factors[0].dim: must be at least 1, got 0",
      "covariance.factors[0].hurst: must lie in (0, 1), got 1.5"]),
    ("q: 2", "q: 0\n  level: 0.5",
     ["phi.q: must be at least 1, got 0", "phi.level: not a parameter of pure phi"]),
    (_FACTOR, "    - family: tabulated", ["covariance.factors[0].table: missing required key"]),
    (_FACTOR, "    - family: cauchy\n      scale: 2.0",
     ["covariance.factors[0].exponent: missing required key",
      "covariance.factors[0].scale: not a parameter of family 'cauchy'"]),
    ("    - [16]", "    - [x, 0]",
     ["lattice.ladder[0][0]: block sizes must be an integer or list of integers",
      "lattice.ladder[0][1][0]: must be at least 1, got 0"]),
    ("  factors:\n" + _FACTOR, "  factors: []\n  weights: [0.5, 0.5]",
     ["covariance.factors: must be a nonempty list",
      "covariance.weights: only additive structures take weights"]),
    (_FACTOR, "    - family: fgn\n      hurst: 1" + "0" * 400,
     ["covariance.factors[0].hurst: must be a finite number, "
      "got an integer too large for a float"]),
    ("replicates: 120\nseed: 7", "replicates: 0\nseed: 1180591620717411303424",
     ["replicates: must be at least 100, got 0",
      "seed: must be at most 18446744073709551615, got 1180591620717411303424"]),
    ("    - [32]\nreplicates: 120", "    - [8]\nreplicates: 50\ngrowth: [1, -1]",
     ["lattice.ladder: must be strictly increasing in n_total",
      "replicates: must be at least 100, got 50",
      "growth[1]: must be at least 0.0, got -1.0",
      "growth: must hold one exponent per covariance block, got 2 for 1"]),
], ids=["bad dim and hurst", "bad q and stray level", "missing table", "stray parameter",
        "two bad blocks", "no factors and stray weights", "float overflow",
        "wide seed and no replicates", "every config rule"])
def test_every_violation_of_a_mapping_is_reported_once(old, new, want):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace(old, new))
    assert err.value.violations == want


_CAUCHY_2D = "{family: cauchy, exponent: 0.5, dim: 2}"


@pytest.mark.parametrize("make, text, path", [
    (lambda: CompositeCovariance("separable", (FactorCovariance("white_noise"),),
                                 weights=(0.5, 0.5)),
     MINIMAL.replace(_FACTOR, _FACTOR + "\n  weights: [0.5, 0.5]"), "covariance"),
    (lambda: CompositeCovariance("additive", (FactorCovariance("cauchy", exponent=0.48),
                                              FactorCovariance("cauchy", exponent=3.0)),
                                 weights=("0.5", "0.5")),
     ADDITIVE.replace("weights: [0.1, 0.9]", "weights: ['0.5', '0.5']"), "covariance"),
    (lambda: CompositeCovariance("isotropic", (FactorCovariance("cauchy", exponent=0.5, dim=2),),
                                 block_dims=(1.7, 1.2)),
     _config(f"{{structure: isotropic, factors: [{_CAUCHY_2D}], block_dims: [1.7, 1.2]}}"),
     "covariance"),
    (lambda: CompositeCovariance("isotropic", (FactorCovariance("cauchy", exponent=0.5, dim=2),),
                                 block_dims=(True, True)),
     _config(f"{{structure: isotropic, factors: [{_CAUCHY_2D}], block_dims: [true, true]}}"),
     "covariance"),
    (lambda: FactorCovariance("tabulated", table={(0,): True}),
     MINIMAL.replace(_FACTOR, _FACTOR.replace(
         "white_noise", "tabulated\n      table:\n        - {lag: 0, value: true}")),
     "covariance.factors[0]"),
], ids=["separable weights", "string weights", "fractional block dims", "boolean block dims",
        "boolean value"])
def test_the_constructor_refuses_what_the_parser_refuses(make, text, path):
    # one rule set: the parser reports each violation of a constructor at
    # the path of the model it builds, with the constructor's own message
    with pytest.raises(ModelError) as refused:
        make()
    violations = refused.value.violations
    assert str(refused.value) == "; ".join(f"{key}: {message}" for key, message in violations)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [f"{path}.{key}: {message}" for key, message in violations]


def test_a_tabulated_lag_is_a_tuple_of_integers():
    # the constructor checks each lag coordinate as an integer; the parser
    # needs integer lags to build the table's keys, and says so first
    for lag, why in (((0.5,), "must be an integer, got 0.5"),
                     ((True,), "expected a number, got bool")):
        with pytest.raises(ModelError, match=rf"^table\[\({lag[0]},\)\]: {why}$"):
            FactorCovariance("tabulated", table={(0,): 1.0, lag: 0.5})
    assert FactorCovariance("tabulated", table={0: 1.0, (np.int64(1),): 0.5}).table == {
        (0,): 1.0, (1,): 0.5}
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace(_FACTOR, _TABLE + "\n        - {lag: 0.5, value: 0.5}"))
    assert err.value.violations == [
        "covariance.factors[0].table[1].lag: lag must be an integer or list of integers"]


def test_a_separable_model_with_weights_is_never_written():
    # the constructor refuses the stray weights, so serialize_config cannot
    # write the document that parse_config would refuse
    with pytest.raises(ModelError, match="^weights: only additive structures take weights$"):
        CompositeCovariance("separable", (FactorCovariance("white_noise"),), weights=(0.5, 0.5))
    import yaml

    doc = yaml.safe_load(serialize_config(parse_config(MINIMAL)))
    assert "weights" not in doc["covariance"]
    doc["covariance"]["weights"] = [0.5, 0.5]
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(doc))
    assert err.value.violations == ["covariance.weights: only additive structures take weights"]


_CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", ["crit10-path-a", "sepmatters-isotropic"])
def test_a_config_is_checked_once_per_parse(monkeypatch, name):
    # each rule runs once: the parser leaves every value to the constructors
    calls = []
    for module, func in ((covariance, "set_params"), (hermite, "set_params"),
                         (harness, "check_config_fields")):
        def counted(*args, _func=getattr(module, func), _name=f"{module.__name__}.{func}"):
            calls.append(_name)
            return _func(*args)
        monkeypatch.setattr(module, func, counted)
    config = parse_config((_CONFIG_DIR / f"{name}.yaml").read_text())
    assert sorted(calls) == sorted(
        ["latfield.covariance.set_params"] * len(config.covariance.factors)
        + ["latfield.hermite.set_params", "latfield.harness.check_config_fields"])


#: the config_hash of each frozen config, unchanged since the hash became
#: the sha256 of the stored config document
FROZEN_HASHES = {
    "crit10-path-a": "184c9d47b5930a1fb98496c098751d9fd245c8b203333daaed4b899258e965e8",
    "crit10-path-b": "bf5956879e5178622414dbb0ad553c32132f649d171e308367daee86a93494f7",
    "crit7-central": "742152bb2ab0bd973e3d309d51b5fe9ab7875d547af1299861e4ad15a07575fd",
    "crit8-noncentral": "5136cbcced247b15b8cca1e0dbd1c399fba4e90f620015443902f22fd0a6eec7",
    "gneiting-growing": "13df1d442d142eb5c353b9369dabc638da960e1db127ae7a4a47942517215362",
    "sepmatters-isotropic": "7c12982eb9612672d208f6318cca230102941d5c4afbae603f427b77c89f9d93",
    "smoke": "01cc9fd463532640bb1cbaabd50894e3f997a69f2a13712d1e9026ed94d811cf",
}


def test_the_frozen_config_hashes_do_not_move():
    paths = sorted(_CONFIG_DIR.glob("*.yaml"))
    assert [p.stem for p in paths] == sorted(FROZEN_HASHES)
    for path in paths:
        assert config_fingerprint(parse_config(path.read_text())) == FROZEN_HASHES[path.stem]


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


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_result_json_stores_the_config_as_its_yaml_form_reads(tmp_path, path):
    # the stored config is built as a document, not read back from its YAML
    # text; the result JSON is byte for byte what the YAML round trip gave
    import yaml

    config = parse_config(path.read_text())
    result = ExperimentResult(label=config.label, config_hash=config_fingerprint(config),
                              version="0", rungs=())
    manifest = persist_result(result, tmp_path, config=config)
    doc = cli._doc(result)
    doc["config"] = yaml.safe_load(serialize_config(config))
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert Path(manifest.result_path).read_text() == want
    # the hash is the sha256 of the stored config document's sorted JSON
    doc = json.loads(want)
    text = json.dumps(doc["config"], sort_keys=True)
    assert doc["config_hash"] == hashlib.sha256(text.encode()).hexdigest()


def test_a_custom_phi_config_is_not_stored(tmp_path):
    # a custom phi has no config form, so its result would carry a config
    # that cannot be parsed back: refused before anything is written
    config = dataclasses.replace(parse_config(MINIMAL),
                                 phi=HermiteSpec("custom", func=np.tanh))
    with pytest.raises(ModelError, match="custom phi has no config form"):
        serialize_config(config)
    # it is hashed by its callable's name and its truncation order
    assert config_document(config)["phi"] == {"kind": "custom", "func": "tanh", "qmax": 20}
    result = run_experiment(config)
    out = tmp_path / "out"
    with pytest.raises(ModelError, match="custom phi"):
        persist_result(result, out, config=config)
    assert not out.exists()


@pytest.mark.parametrize("label", ["../escaped", "a/b", "..", ".", "a\0b"])
def test_a_label_must_be_a_plain_file_name(tmp_path, capsys, label):
    # the label stems the result file names, so anything but one plain
    # file-name component would write outside --out, or fail only after
    # the whole run: refused in the usual single pass, before any output
    text = MINIMAL.replace("label: smoke", f"label: {json.dumps(label)}")
    with pytest.raises(ConfigError) as info:
        parse_config(text.replace("replicates: 120", "replicates: 0"))
    assert [v.split(":")[0] for v in info.value.violations] == ["label", "replicates"]
    with pytest.raises(ModelError, match="label must be a plain file name"):
        dataclasses.replace(parse_config(MINIMAL), label=label)
    work = tmp_path / "work"
    work.mkdir()
    cfg = work / "cfg.yaml"
    cfg.write_text(text)
    for command in ("experiment", "validate"):
        assert main([command, "--config", str(cfg), "--out", str(work / "out")]) == 2
        assert "  label: must be a plain file name" in capsys.readouterr().err
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert written == ["work", "work/cfg.yaml"]


def test_a_rung_must_have_the_covariance_block_layout(tmp_path, capsys):
    # a second rung of two 1-D blocks under a one-block covariance: every
    # command refuses the config at parse time, naming the rung
    smoke = (Path(__file__).resolve().parents[1] / "configs" / "smoke.yaml").read_text()
    text = smoke.replace("    - [128]\n", "    - [128, 5]\n")
    assert text != smoke
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.violations == [
        "lattice.ladder[1]: has block dims (1, 1), but the covariance has blocks (1,)"]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    for command in ("experiment", "validate", "chaos", "classify"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2, command
        assert "  lattice.ladder[1]: has block dims" in capsys.readouterr().err, command
    assert not (tmp_path / "out").exists()


def test_an_unreadable_config_is_one_error_line(tmp_path, capsys):
    # a missing config and one that is not UTF-8 are configuration errors:
    # one error line and exit 2 from every command, and no --out is made
    latin = tmp_path / "latin.yaml"
    latin.write_bytes(MINIMAL.replace("label: smoke", "label: caf\xe9").encode("latin-1"))
    for path, why in ((tmp_path / "missing.yaml", "No such file"), (latin, "can't decode")):
        for command in ("validate", "chaos", "classify", "experiment"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert captured.err.startswith("error: --config: "), command
            assert why in captured.err and captured.err.count("\n") == 1, command
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["experiment", "chaos"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_an_unusable_out_is_refused_before_any_rung(tmp_path, capsys, monkeypatch, command, below):
    # --out naming a file, or a path below one, ends the run with one error
    # line before a rung is built, and the file is left as it was
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL)
    blocker = tmp_path / "out"
    blocker.write_text("kept\n")

    def no_rung(*args, **kwargs):
        raise AssertionError("a rung was built")

    monkeypatch.setattr(cli, "run_experiment", no_rung)
    monkeypatch.setattr(cli, "chaos_report", no_rung)
    out = blocker / "sub" if below else blocker
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1
    assert blocker.read_text() == "kept\n"


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


def test_experiment_command_prints_the_rate(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("    - [32]\n", "    - [32]\n    - [64]\n    - [128]\n")
                   .replace("outputs: [normality]", "outputs: [rate_fit]"))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "smoke.json").read_text())
    slope, stderr = result["rate"]
    assert (f"rate: slope {slope:+.4f} (se {stderr:.4f}) from {result['rate_source']}\n"
            in capsys.readouterr().out)


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


def test_an_integer_past_the_digit_limit_is_a_violation(tmp_path, capsys):
    # the YAML loader raises a plain ValueError for an integer of more than
    # 4 300 digits; it is reported as invalid YAML, with exit 2
    smoke = Path(__file__).resolve().parents[1] / "configs" / "smoke.yaml"
    text = smoke.read_text().replace("seed: 11", "seed: " + "1" * 5000)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    [violation] = err.value.violations
    assert violation.startswith("(document): not valid YAML: ")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "(document): not valid YAML: " in capsys.readouterr().err


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


def test_a_degenerate_sample_exits_3_naming_its_rung(tmp_path, capsys):
    # an indicator of level 6 is 0 on every white-noise draw of 8 points
    text = (MINIMAL.replace("  kind: pure\n  q: 2", "  kind: indicator\n  level: 6")
            .replace("    - [16]\n    - [32]", "    - [8]\n    - [16]")
            .replace("replicates: 120\nseed: 7", "replicates: 100\nseed: 3"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert ("numerical failure: rung 0 (8): degenerate sample variance"
            in capsys.readouterr().err)


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


def test_chaos_command_takes_any_pure_order_up_to_the_cap(tmp_path, capsys):
    # a config has no qmax: a pure phi's q runs to MAX_CHAOS_ORDER, and the
    # exact diagnostics take every such order
    smoke = Path(__file__).resolve().parents[1] / "configs" / "smoke.yaml"
    text = smoke.read_text()
    assert "\n  q: 2\n" in text
    cfg = tmp_path / "smoke-q25.yaml"
    cfg.write_text(text.replace("\n  q: 2\n", "\n  q: 25\n"))
    assert parse_config(cfg.read_text()).phi == HermiteSpec("pure", q=25)
    out = tmp_path / "out"
    assert main(["chaos", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "smoke-determinism-chaos.json").read_text())
    assert doc["q"] == 25 and len(doc["rungs"]) == 2
    assert all(rung["fourth_exact"] is True for rung in doc["rungs"])
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("\n  q: 2\n", "\n  q: 31\n"))
    assert err.value.violations == ["phi.q: must be at most 30, got 31"]


def test_chaos_command_notes_a_rung_it_cannot_compute(tmp_path, capsys):
    # an additive rung past DENSE_LIMIT has no chaos report: its note is
    # recorded as run_experiment records it, and the ladder goes on
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(ADDITIVE.replace("    - [8, 8]\n", "    - [8, 8]\n    - [80, 60]\n    - [81, 60]\n"))
    out = tmp_path / "out"
    assert main(["chaos", "--config", str(cfg), "--out", str(out)]) == 0
    notes = [f"chaos report unavailable: contraction norms are capped at 4096 points per "
             f"block ({n} requested)" for n in (4800, 4860)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n=64: variance=")
    assert lines[1:3] == [f"n=4800: {notes[0]}", f"n=4860: {notes[1]}"]
    rungs = json.loads((out / "additive-sample-chaos.json").read_text())["rungs"]
    assert rungs[0]["fourth_exact"] is True
    assert rungs[1:] == [{"notes": [notes[0]]}, {"notes": [notes[1]]}]


def test_classify_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(ADDITIVE)
    out = tmp_path / "out"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "verdict: additive_conditional" in text
    assert "dominant block: 1" in text
    path = out / "additive-sample-classify.json"
    assert f"wrote {path}\n" in text
    doc = json.loads(path.read_text())
    assert doc["label"] == "additive-sample" and doc["q"] == 2
    assert doc["verdict"] == "additive_conditional" and doc["dominant_block"] == 1


def test_rates_command(tmp_path, capsys):
    assert main(["rates", "--q", "2", "--hurst", "0.3,0.75",
                 "--sizes", "100,10000", "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "H=0.3" in text and "H=0.75" in text
    assert f"wrote {tmp_path / 'rates.json'}\n" in text
    doc = json.loads((tmp_path / "rates.json").read_text())
    assert doc["q"] == 2 and [row["hurst"] for row in doc["rows"]] == [0.3, 0.75]
    assert list(doc["rows"][0]["rates"]) == ["100", "10000"]
    assert main(["rates", "--q", "2", "--alpha", "0.3", "--beta", "0.9"]) == 0
    assert "case 4" in capsys.readouterr().out
    # a bad flag is refused before any row is printed
    capsys.readouterr()
    assert main(["rates", "--q", "2", "--hurst", "0.3,0.6", "--alpha", "0.3"]) == 2
    assert capsys.readouterr() == ("", "rates: --alpha and --beta must be given together\n")
    assert main(["rates", "--q", "2"]) == 2
    assert capsys.readouterr().out == ""
    # a refused H or beta prints no row of the values before it
    for args in (["--hurst", "0.3,0.9"], ["--hurst", "0.3", "--alpha", "0.3", "--beta", "1.2"]):
        assert main(["rates", "--q", "2", *args]) == 2, args
        assert capsys.readouterr().out == "", args
    # a 401-digit size is a keyed model error, not an OverflowError
    capsys.readouterr()
    assert main(["rates", "--q", "2", "--hurst", "0.3", "--sizes", "1" * 401]) == 2
    assert capsys.readouterr().err == ("error: n: must be a finite number, got an integer "
                                       "too large for a float\n")


@pytest.mark.parametrize("args", [["--hurst", "x"], ["--hurst", "0.3", "--sizes", "10,abc"]],
                         ids=["hurst", "sizes"])
def test_rates_refuses_a_bad_list_value(capsys, args):
    # an unparseable list value is a usage error, not a traceback
    with pytest.raises(SystemExit) as info:
        main(["rates", "--q", "2", *args])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage: latfield rates" in err and "expected comma-separated" in err


def test_no_scipy_module_is_loaded(tmp_path):
    # neither by the import nor by an experiment whose indicator phi takes
    # the normal CDF, the critical values and the exact orthant lag sum
    cfg = tmp_path / "indicator.yaml"
    cfg.write_text(MINIMAL.replace("kind: pure\n  q: 2", "kind: indicator\n  level: 0.7"))
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "\n".join((
        "import sys, latfield.cli",
        "def scipy(): return sorted(m for m in sys.modules if m.startswith('scipy'))",
        "print('loaded', scipy())",
        f"code = latfield.cli.main(['experiment', '--config', {str(cfg)!r},"
        f" '--out', {str(tmp_path / 'out')!r}])",
        "print('loaded', scipy(), code)",
    ))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    lines = [line for line in out.stdout.splitlines() if line.startswith("loaded")]
    assert lines == ["loaded []", "loaded [] 0"]
    result = json.loads((tmp_path / "out" / "smoke.json").read_text())
    assert [r["variance_source"] for r in result["rungs"]] == ["exact", "exact"]


def test_additive_results_are_thread_count_invariant(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(ADDITIVE.replace("    - [8, 8]", "    - [8, 8]\n    - [64, 23]")
                   .replace("growth:", "outputs: [normality, kurtosis_series]\ngrowth:"))
    outs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out = tmp_path / sub
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        outs.append([(out / f"additive-sample.{ext}").read_bytes() for ext in ("json", "csv")])
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0][0])["rungs"]) == 2


def test_negative_thread_count_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out),
                 "--threads", "-3"]) == 2
    assert "threads: must be at least 0, got -3" in capsys.readouterr().err
    assert not out.exists()
