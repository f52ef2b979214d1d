"""Config parsing, subcommand dispatch, and result persistence.

Configs are YAML documents with a versioned schema.  Parsing collects
every violation (each tagged with its key path) before failing, so a bad
config is fixed in one pass.  Persistence is append-only: existing files
are never overwritten, collisions get a numeric suffix.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import json
import math
import sys
from pathlib import Path
from typing import Optional

import yaml

from . import __version__
from ._errors import ConfigError, ModelError, NumericalError
from .chaoscalc import chaos_report
from .covariance import (
    ADDITIVE,
    CAUCHY,
    EXPONENTIAL,
    FGN,
    GNEITING,
    ISOTROPIC,
    SEPARABLE,
    TABULATED,
    WHITE_NOISE,
    CompositeCovariance,
    FactorCovariance,
)
from .fieldsim import LatticeSpec, build_sampler
from .harness import (
    OUTPUTS,
    ExperimentConfig,
    _label_problem,
    config_fingerprint,
    run_experiment,
)
from .hermite import INDICATOR, PURE, HermiteSpec, hermite_coefficients, hermite_rank
from .ratelab import classify, fbs_regime, rate_g

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema", "label", "covariance", "phi", "lattice",
    "replicates", "seed", "outputs", "growth",
}
_COV_KEYS = {"structure", "factors", "weights", "block_dims"}
_FACTOR_KEYS = {"family", "dim", "hurst", "exponent", "scale", "table"}
_PHI_KEYS = {"kind", "q", "level"}
_FAMILY_PARAMS = {
    FGN: {"hurst"},
    CAUCHY: {"exponent"},
    EXPONENTIAL: {"scale"},
    WHITE_NOISE: set(),
    TABULATED: {"table"},
}


# ---------------------------------------------------------------------------
# config schema


class _Check:
    """Accumulates path-tagged violations while walking the key tree."""

    def __init__(self):
        self.violations = []

    def fail(self, path, message):
        self.violations.append(f"{path}: {message}")

    def known_keys(self, doc, allowed, path):
        for key in doc:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else str(key), "unknown key")

    def require(self, doc, key, path):
        if key not in doc or doc[key] is None:
            self.fail(f"{path}.{key}" if path else key, "missing required key")
            return None
        return doc[key]


def _check_number(check, value, path, kind=float, positive=False, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        check.fail(path, f"expected a number, got {type(value).__name__}")
        return None
    if kind is int and isinstance(value, float) and not value.is_integer():
        check.fail(path, f"must be an integer, got {value}")
        return None
    value = kind(value)
    if positive and value <= 0:
        check.fail(path, f"must be positive, got {value}")
        return None
    if minimum is not None and value < minimum:
        check.fail(path, f"must be at least {minimum}, got {value}")
        return None
    if isinstance(value, float) and not math.isfinite(value):
        check.fail(path, f"must be a finite number, got {value}")
        return None
    return value


def _parse_factor(check, doc, path):
    if not isinstance(doc, dict):
        check.fail(path, "factor must be a mapping")
        return None
    check.known_keys(doc, _FACTOR_KEYS, path)
    family = check.require(doc, "family", path)
    if family is None:
        return None
    if family not in _FAMILY_PARAMS:
        check.fail(f"{path}.family", f"unknown family {family!r}")
        return None
    kwargs = {"family": family}
    dim = doc.get("dim", 1)
    dim = _check_number(check, dim, f"{path}.dim", kind=int, minimum=1)
    if dim is None:
        return None
    kwargs["dim"] = dim
    needed = _FAMILY_PARAMS[family]
    for key in ("hurst", "exponent", "scale", "table"):
        if key in doc and key not in needed:
            check.fail(f"{path}.{key}", f"not a parameter of family {family!r}")
    if family == FGN:
        h = check.require(doc, "hurst", path)
        if h is not None:
            h = _check_number(check, h, f"{path}.hurst")
            if h is not None and not 0.0 < h < 1.0:
                check.fail(f"{path}.hurst", f"must lie in (0, 1), got {h}")
                h = None
        if h is None:
            return None
        kwargs["hurst"] = h
    elif family == CAUCHY:
        b = check.require(doc, "exponent", path)
        if b is not None:
            b = _check_number(check, b, f"{path}.exponent", positive=True)
        if b is None:
            return None
        kwargs["exponent"] = b
    elif family == EXPONENTIAL:
        s = check.require(doc, "scale", path)
        if s is not None:
            s = _check_number(check, s, f"{path}.scale", positive=True)
        if s is None:
            return None
        kwargs["scale"] = s
    elif family == TABULATED:
        entries = check.require(doc, "table", path)
        if not isinstance(entries, list) or not entries:
            check.fail(f"{path}.table", "must be a nonempty list of {lag, value}")
            return None
        table = {}
        for j, entry in enumerate(entries):
            epath = f"{path}.table[{j}]"
            if not isinstance(entry, dict) or set(entry) != {"lag", "value"}:
                check.fail(epath, "entry must map exactly {lag, value}")
                continue
            lag = entry["lag"]
            if isinstance(lag, int):
                lag = [lag]
            if not isinstance(lag, list) or not all(isinstance(c, int) for c in lag):
                check.fail(f"{epath}.lag", "lag must be an integer or list of integers")
                continue
            value = _check_number(check, entry["value"], f"{epath}.value")
            if value is None:
                continue
            table[tuple(lag)] = value
        if not table:
            return None
        kwargs["table"] = table
    try:
        return FactorCovariance(**kwargs)
    except ModelError as exc:
        check.fail(path, str(exc))
        return None


def _parse_covariance(check, doc, path="covariance"):
    if not isinstance(doc, dict):
        check.fail(path, "must be a mapping")
        return None
    check.known_keys(doc, _COV_KEYS, path)
    structure = check.require(doc, "structure", path)
    if structure not in (SEPARABLE, GNEITING, ADDITIVE, ISOTROPIC):
        if structure is not None:
            check.fail(f"{path}.structure", f"unknown structure {structure!r}")
        return None
    raw = check.require(doc, "factors", path)
    if not isinstance(raw, list) or not raw:
        if raw is not None:
            check.fail(f"{path}.factors", "must be a nonempty list")
        return None
    factors = [
        _parse_factor(check, f, f"{path}.factors[{i}]") for i, f in enumerate(raw)
    ]
    kwargs = {"structure": structure, "factors": tuple(factors)}
    valid = None not in factors  # parse on, so one pass reports every violation
    if structure == ADDITIVE:
        weights = check.require(doc, "weights", path)
        parsed = [None]
        if not isinstance(weights, list) or len(weights) != 2:
            if weights is not None:
                check.fail(f"{path}.weights", "must be a list of two numbers")
        else:
            parsed = [
                _check_number(check, w, f"{path}.weights[{i}]", positive=True)
                for i, w in enumerate(weights)
            ]
        valid = valid and None not in parsed
        kwargs["weights"] = tuple(parsed)
    elif "weights" in doc:
        check.fail(f"{path}.weights", "only additive structures take weights")
    if structure == ISOTROPIC:
        dims = check.require(doc, "block_dims", path)
        parsed = [None]
        if not isinstance(dims, list) or not dims:
            if dims is not None:
                check.fail(f"{path}.block_dims", "must be a nonempty list")
        else:
            parsed = [
                _check_number(check, d, f"{path}.block_dims[{i}]", kind=int, minimum=1)
                for i, d in enumerate(dims)
            ]
        valid = valid and None not in parsed
        kwargs["block_dims"] = tuple(parsed)
    elif "block_dims" in doc:
        check.fail(f"{path}.block_dims", "only isotropic structures declare block dims")
    if not valid:
        return None
    try:
        return CompositeCovariance(**kwargs)
    except ModelError as exc:
        check.fail(path, str(exc))
        return None


def _parse_phi(check, doc, path="phi"):
    if not isinstance(doc, dict):
        check.fail(path, "must be a mapping")
        return None
    check.known_keys(doc, _PHI_KEYS, path)
    kind = check.require(doc, "kind", path)
    if kind not in (PURE, INDICATOR):
        if kind is not None:
            check.fail(f"{path}.kind", f"unknown phi kind {kind!r}")
        return None
    kwargs = {"kind": kind}
    if kind == PURE:
        q = check.require(doc, "q", path)
        if q is not None:
            q = _check_number(check, q, f"{path}.q", kind=int, minimum=1)
        if q is None:
            return None
        kwargs["q"] = q
        if "level" in doc:
            check.fail(f"{path}.level", "not a parameter of pure phi")
    else:
        level = check.require(doc, "level", path)
        if level is not None:
            level = _check_number(check, level, f"{path}.level")
        if level is None:
            return None
        kwargs["level"] = level
        if "q" in doc:
            check.fail(f"{path}.q", "not a parameter of indicator phi")
    try:
        return HermiteSpec(**kwargs)
    except ModelError as exc:
        check.fail(path, str(exc))
        return None


def _parse_rung(check, doc, path):
    """One ladder entry: a list with one size (int) or size list per block."""
    if not isinstance(doc, list) or not doc:
        check.fail(path, "rung must be a nonempty list of block sizes")
        return None
    blocks = []
    for i, entry in enumerate(doc):
        bpath = f"{path}[{i}]"
        if isinstance(entry, int) and not isinstance(entry, bool):
            entry = [entry]
        if not isinstance(entry, list) or not entry:
            check.fail(bpath, "block sizes must be an integer or list of integers")
            return None
        sizes = [
            _check_number(check, n, f"{bpath}[{j}]", kind=int, minimum=1)
            for j, n in enumerate(entry)
        ]
        if any(n is None for n in sizes):
            return None
        blocks.append(tuple(sizes))
    try:
        return LatticeSpec(tuple(blocks))
    except ModelError as exc:
        check.fail(path, str(exc))
        return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML config, reporting every violation at once."""
    check = _Check()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"(document): not valid YAML: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["(document): top level must be a mapping"])
    check.known_keys(doc, _TOP_KEYS, "")
    schema = check.require(doc, "schema", "")
    if schema is not None and schema != SCHEMA_VERSION:
        check.fail("schema", f"unsupported schema version {schema!r}")
    label = doc.get("label", "")
    if not isinstance(label, str):
        check.fail("label", "must be a string")
        label = ""
    problem = _label_problem(label)
    if problem:
        check.fail("label", problem)
    cov = phi = None
    raw_cov = check.require(doc, "covariance", "")
    if raw_cov is not None:
        cov = _parse_covariance(check, raw_cov)
    raw_phi = check.require(doc, "phi", "")
    if raw_phi is not None:
        phi = _parse_phi(check, raw_phi)
    ladder = None
    raw_lattice = check.require(doc, "lattice", "")
    if raw_lattice is not None:
        if not isinstance(raw_lattice, dict):
            check.fail("lattice", "must be a mapping")
        else:
            check.known_keys(raw_lattice, {"ladder"}, "lattice")
            raw_ladder = check.require(raw_lattice, "ladder", "lattice")
            if raw_ladder is not None:
                if not isinstance(raw_ladder, list) or not raw_ladder:
                    check.fail("lattice.ladder", "must be a nonempty list of rungs")
                else:
                    ladder = [
                        _parse_rung(check, rung, f"lattice.ladder[{i}]")
                        for i, rung in enumerate(raw_ladder)
                    ]
                    if any(r is None for r in ladder):
                        ladder = None
    replicates = _check_number(
        check, doc.get("replicates", 200), "replicates", kind=int, minimum=1
    )
    seed = _check_number(check, doc.get("seed", 0), "seed", kind=int, minimum=0)
    outputs = doc.get("outputs", ["normality"])
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        check.fail("outputs", "must be a list of output names")
        outputs = None
    else:
        for i, name in enumerate(outputs):
            if name not in OUTPUTS:
                check.fail(f"outputs[{i}]", f"unknown output {name!r}")
                outputs = None
    growth = doc.get("growth")
    if growth is not None:
        if not isinstance(growth, list):
            check.fail("growth", "must be a list of per-block exponents")
            growth = None
        else:
            parsed = [
                _check_number(check, g, f"growth[{i}]", minimum=0.0)
                for i, g in enumerate(growth)
            ]
            growth = None if any(g is None for g in parsed) else tuple(parsed)
    if check.violations:
        raise ConfigError(check.violations)
    try:
        return ExperimentConfig(
            covariance=cov,
            phi=phi,
            ladder=tuple(ladder),
            replicates=replicates,
            seed=seed,
            outputs=tuple(outputs),
            label=label,
            growth=growth,
        )
    except ModelError as exc:
        raise ConfigError([f"(config): {exc}"]) from exc


def _factor_doc(factor: FactorCovariance) -> dict:
    doc = {"family": factor.family}
    if factor.dim != 1:
        doc["dim"] = factor.dim
    if factor.hurst is not None:
        doc["hurst"] = factor.hurst
    if factor.exponent is not None:
        doc["exponent"] = factor.exponent
    if factor.scale is not None:
        doc["scale"] = factor.scale
    if factor.table is not None:
        doc["table"] = [
            {"lag": list(lag), "value": value}
            for lag, value in sorted(factor.table.items())
        ]
    return doc


def _config_doc(config: ExperimentConfig) -> dict:
    """The config as the plain document its YAML form holds; ModelError
    for a custom phi, which has no config form."""
    if config.phi.kind not in (PURE, INDICATOR):
        raise ModelError(f"a {config.phi.kind} phi has no config form")
    cov = config.covariance
    cov_doc = {
        "structure": cov.structure,
        "factors": [_factor_doc(f) for f in cov.factors],
    }
    if cov.weights is not None:
        cov_doc["weights"] = list(cov.weights)
    if cov.structure == ISOTROPIC:
        cov_doc["block_dims"] = list(cov.block_dims)
    phi_doc = {"kind": config.phi.kind}
    if config.phi.kind == PURE:
        phi_doc["q"] = config.phi.q
    else:
        phi_doc["level"] = config.phi.level
    doc = {
        "schema": SCHEMA_VERSION,
        "label": config.label,
        "covariance": cov_doc,
        "phi": phi_doc,
        "lattice": {
            "ladder": [[list(block) for block in l.blocks] for l in config.ladder]
        },
        "replicates": config.replicates,
        "seed": config.seed,
        "outputs": list(config.outputs),
    }
    if config.growth is not None:
        doc["growth"] = list(config.growth)
    return doc


def serialize_config(config: ExperimentConfig) -> str:
    """YAML text that parses back to an equivalent config; ModelError for a
    custom phi, which has no config form."""
    return yaml.safe_dump(_config_doc(config), sort_keys=False)


# ---------------------------------------------------------------------------
# persistence


@dataclasses.dataclass(frozen=True)
class RunManifest:
    config_hash: str
    version: str
    seed: int
    started: str
    finished: str
    result_path: str
    csv_path: str
    manifest_path: str


def _doc(value):
    """Recursively turn results (dataclasses, tuples, numpy scalars) into
    plain JSON-serializable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _doc(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _doc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_doc(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


def _reserve(out_dir: Path, stem: str, extensions) -> dict:
    """First filename set {stem}{ext} (suffix -2, -3, ... on collision)
    such that no member exists yet."""
    k = 1
    while True:
        suffix = "" if k == 1 else f"-{k}"
        paths = {ext: out_dir / f"{stem}{suffix}{ext}" for ext in extensions}
        if not any(p.exists() for p in paths.values()):
            return paths
        k += 1


_CSV_COLUMNS = (
    "n", "mean", "variance", "skewness", "kurtosis",
    "mean_se", "variance_se", "skewness_se", "kurtosis_se", "ks",
)


def persist_result(result, out_dir, config: ExperimentConfig,
                   started: Optional[str] = None) -> RunManifest:
    """Write the result JSON, the rung CSV, and the manifest; append-only."""
    doc = _doc(result)
    # before any write: a custom phi cannot be stored
    doc["config"] = _config_doc(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = result.label or "run"
    paths = _reserve(out_dir, stem, (".json", ".csv", ".manifest.json"))
    paths[".json"].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    with paths[".csv"].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for rung in result.rungs:
            s = rung.stats
            writer.writerow([
                rung.n_total, s.mean, s.variance, s.skewness, s.kurtosis,
                s.mean_se, s.variance_se, s.skewness_se, s.kurtosis_se,
                s.ks_stat,
            ])
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = RunManifest(
        config_hash=result.config_hash,
        version=result.version,
        seed=config.seed,
        started=started or now,
        finished=now,
        result_path=str(paths[".json"]),
        csv_path=str(paths[".csv"]),
        manifest_path=str(paths[".manifest.json"]),
    )
    paths[".manifest.json"].write_text(
        json.dumps(_doc(manifest), indent=2, sort_keys=True) + "\n"
    )
    return manifest


# ---------------------------------------------------------------------------
# subcommands


def _load_config(args) -> ExperimentConfig:
    text = Path(args.config).read_text()
    config = parse_config(text)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _write_json(out_dir, stem, doc) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _reserve(out_dir, stem, (".json",))[".json"]
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _cmd_validate(args) -> int:
    config = _load_config(args)
    rows = []
    for idx, lattice in enumerate(config.ladder):
        sampler = build_sampler(config.covariance, lattice)
        rows.append({
            "rung": idx,
            "sizes": list(lattice.all_sizes),
            "method": sampler.method,
            "min_eigenvalue": sampler.min_eigenvalue,
            "embeddings": _doc(sampler.embeddings),
        })
    print(f"config ok: label={config.label!r} rungs={len(config.ladder)} "
          f"hash={config_fingerprint(config)[:12]}")
    for row in rows:
        print(
            "rung {rung} sizes {sizes}: method {method}, "
            "min eigenvalue {min_eigenvalue:.3e}".format(**row)
        )
        for i, emb in enumerate(row["embeddings"]):
            print(f"  embedding {i}: shape {emb['shape']}, doublings {emb['doublings']}, "
                  f"min eigenvalue {emb['min_eigenvalue']:.3e}")
    if args.out:
        path = _write_json(args.out, (config.label or "config") + "-spectrum",
                           {"label": config.label, "spectra": rows})
        print(f"wrote {path}")
    return 0


def _cmd_chaos(args) -> int:
    config = _load_config(args)
    rank = hermite_rank(hermite_coefficients(config.phi))
    reports = []
    for lattice in config.ladder:
        rep = chaos_report(config.covariance, lattice, rank)
        reports.append(_doc(rep))
        tv = "n/a" if rep.tv_bound is None else f"{rep.tv_bound:.6g}"
        print(f"n={lattice.n_total}: variance={rep.variance:.6g} "
              f"kappa4={rep.fourth_cumulant:.6g} "
              f"(exact={rep.fourth_exact}) tv_bound={tv}")
    if args.out:
        path = _write_json(args.out, (config.label or "chaos") + "-chaos",
                           {"label": config.label, "q": rank, "rungs": reports})
        print(f"wrote {path}")
    return 0


def _cmd_classify(args) -> int:
    config = _load_config(args)
    rank = hermite_rank(hermite_coefficients(config.phi))
    verdict = classify(config.covariance, rank, growth=config.growth)
    print(f"verdict: {verdict.verdict}")
    print(f"citation: {verdict.citation}")
    if verdict.dominant_block is not None:
        print(f"dominant block: {verdict.dominant_block}")
    for label, term in verdict.normalization.items():
        print(f"normalization {label}: exponent {term['exponent']:.6g}, "
              f"log exponent {term['log_exponent']:.6g}")
    for note in verdict.notes:
        print(f"note: {note}")
    if args.out:
        path = _write_json(args.out, (config.label or "classify") + "-classify",
                           {"label": config.label, "q": rank, **_doc(verdict)})
        print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    config = _load_config(args)
    result = run_experiment(config, threads=args.threads)
    for rung in result.rungs:
        s = rung.stats
        print(f"n={rung.n_total}: kurtosis {s.kurtosis:+.4f} "
              f"(se {s.kurtosis_se:.4f}), ks {s.ks_stat:.4f}, "
              f"variance[{rung.variance_source}], "
              f"{'gaussian' if rung.gaussian else 'non-gaussian'}")
    if result.verdict:
        print(f"verdict: {result.verdict}")
    if result.rate is not None:
        print(f"rate: slope {result.rate[0]:+.4f} "
              f"(se {result.rate[1]:.4f}) from {result.rate_source}")
    manifest = persist_result(result, args.out, config=config, started=started)
    print(f"wrote {manifest.result_path}")
    print(f"wrote {manifest.csv_path}")
    print(f"wrote {manifest.manifest_path}")
    return 0


def _cmd_rates(args) -> int:
    sizes = args.sizes or [10**4]
    doc = {"q": args.q, "rows": []}
    if args.hurst:
        for h in args.hurst:
            row = {"hurst": h,
                   "rates": {str(n): rate_g(args.q, h, n) for n in sizes}}
            doc["rows"].append(row)
            rendered = "  ".join(
                f"g(N={n})={row['rates'][str(n)]:.6g}" for n in sizes
            )
            print(f"q={args.q} H={h}: {rendered}")
    if args.alpha is not None and args.beta is not None:
        verdict = fbs_regime(args.alpha, args.beta, args.q)
        doc["regime"] = _doc(verdict)
        print(f"regime({args.alpha}, {args.beta}, q={args.q}): "
              f"{verdict.verdict}"
              + (f", case {verdict.case}" if verdict.case else ""))
        for label, term in verdict.normalization.items():
            print(f"  normalization {label}: exponent {term['exponent']:.6g}, "
                  f"log exponent {term['log_exponent']:.6g}")
    elif (args.alpha is None) != (args.beta is None):
        print("rates: --alpha and --beta must be given together",
              file=sys.stderr)
        return 2
    if not args.hurst and args.alpha is None:
        print("rates: nothing to do (pass --hurst and/or --alpha/--beta)",
              file=sys.stderr)
        return 2
    if args.out:
        path = _write_json(args.out, "rates", doc)
        print(f"wrote {path}")
    return 0


def _comma_list(kind):
    """argparse type: a comma-separated list of ``kind`` values, so a bad
    value is a usage error (exit 2)."""
    def parse(text):
        try:
            return [kind(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from None
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latfield",
        description="Lattice Gaussian field functionals: simulation, chaos "
                    "diagnostics, and limit-regime experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_config=True, needs_out_dir=False):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="config file path")
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        if needs_out_dir:
            p.add_argument("--out", required=True, help="output directory")
        else:
            p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate,
        "check a config and report embedding spectra")
    add("chaos", _cmd_chaos,
        "exact chaos diagnostics for each rung")
    add("classify", _cmd_classify,
        "limit-regime verdict from model metadata")
    exp = add("experiment", _cmd_experiment,
              "run the Monte Carlo experiment and persist results",
              needs_out_dir=True)
    exp.add_argument("--threads", type=int, default=1,
                     help="worker threads (0 = one per CPU this process may use)")
    rates = add("rates", _cmd_rates,
                "rate tables and two-parameter regime rows",
                needs_config=False)
    rates.add_argument("--q", type=int, required=True)
    rates.add_argument("--hurst", type=_comma_list(float), default=None,
                       help="comma-separated H values")
    rates.add_argument("--sizes", type=_comma_list(int), default=None,
                       help="comma-separated window sizes")
    rates.add_argument("--alpha", type=float, default=None)
    rates.add_argument("--beta", type=float, default=None)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: parsing does
    not change it."""
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config invalid:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
