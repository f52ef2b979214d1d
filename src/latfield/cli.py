"""Config parsing, subcommand dispatch, and result persistence.

Configs are YAML documents with a versioned schema.  Each covariance
family's and each phi kind's parameters are declared once, with their
checks, in ``_FAMILY_PARAMS`` and ``_PHI_PARAMS``: parsing walks these
tables to check a factor or a phi, and ``_config_doc`` walks them to
serialize one.  Parsing collects every violation (each tagged with its
key path) before failing, so a bad config is fixed in one pass: only a
missing or unknown ``structure``, ``family`` or ``kind``, which decides
the keys its mapping takes, ends the walk of that mapping.  Booleans are
not numbers.  Persistence is append-only: existing files are never
overwritten, collisions get a numeric suffix.
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

#: Each covariance family's and each phi kind's parameters, with the
#: ``_check_number`` rule of each (None: the lag table of a tabulated
#: factor).  Parsing and serialization both read these tables.
_FAMILY_PARAMS = {
    FGN: {"hurst": {"between": (0.0, 1.0)}},
    CAUCHY: {"exponent": {"positive": True}},
    EXPONENTIAL: {"scale": {"positive": True}},
    WHITE_NOISE: {},
    TABULATED: {"table": None},
}
_PHI_PARAMS = {
    PURE: {"q": {"kind": int, "minimum": 1}},
    INDICATOR: {"level": {}},
}


def _names(table) -> tuple:
    """Every parameter name in ``table``, in table order."""
    return tuple(dict.fromkeys(name for params in table.values() for name in params))


_TOP_KEYS = {
    "schema", "label", "covariance", "phi", "lattice",
    "replicates", "seed", "outputs", "growth",
}
_COV_KEYS = {"structure", "factors", "weights", "block_dims"}
_FACTOR_KEYS = {"family", "dim", *_names(_FAMILY_PARAMS)}
_PHI_KEYS = {"kind", *_names(_PHI_PARAMS)}


# ---------------------------------------------------------------------------
# config schema


class _Check:
    """Accumulates path-tagged violations while walking the key tree."""

    def __init__(self):
        self.violations = []

    def fail(self, path, message):
        self.violations.append(f"{path}: {message}")

    def mapping(self, doc, allowed, path, message="must be a mapping") -> bool:
        """Whether ``doc`` is a mapping, reporting its unknown keys; else
        ``message``."""
        if not isinstance(doc, dict):
            self.fail(path, message)
            return False
        for key in doc:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else str(key), "unknown key")
        return True

    def require(self, doc, key, path):
        if key not in doc or doc[key] is None:
            self.fail(f"{path}.{key}" if path else key, "missing required key")
            return None
        return doc[key]

    def choice(self, doc, key, path, options, what):
        """The required string ``doc[key]`` when it is one of ``options``."""
        value = self.require(doc, key, path)
        if value is not None and (not isinstance(value, str) or value not in options):
            self.fail(f"{path}.{key}", f"unknown {what} {value!r}")
            return None
        return value


def _check_number(check, value, path, kind=float, positive=False, minimum=None,
                  between=None):
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
    if between is not None and not between[0] < value < between[1]:
        check.fail(path, f"must lie in ({between[0]:g}, {between[1]:g}), got {value}")
        return None
    return value


def _numbers(check, value, path, message, fits=bool, **rule):
    """``value`` as a tuple of numbers that each pass ``_check_number`` with
    ``rule``, or None once every violation is recorded: ``message`` when it
    is not a list or ``fits(value)`` is false (by default: it is empty)."""
    if not isinstance(value, list) or not fits(value):
        check.fail(path, message)
        return None
    parsed = [_check_number(check, v, f"{path}[{i}]", **rule) for i, v in enumerate(value)]
    return None if None in parsed else tuple(parsed)


def _construct(check, path, make, **kwargs):
    """make(**kwargs), or None once its ModelError is recorded at ``path``."""
    try:
        return make(**kwargs)
    except ModelError as exc:
        check.fail(path, str(exc))
        return None


def _parse_table(check, entries, path):
    """A tabulated factor's {lag tuple: value} from its list of entries;
    None when no entry is valid."""
    if not isinstance(entries, list) or not entries:
        check.fail(path, "must be a nonempty list of {lag, value}")
        return None
    table = {}
    for j, entry in enumerate(entries):
        epath = f"{path}[{j}]"
        if not isinstance(entry, dict) or set(entry) != {"lag", "value"}:
            check.fail(epath, "entry must map exactly {lag, value}")
            continue
        lag = entry["lag"]
        lag = lag if isinstance(lag, list) else [lag]
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in lag):
            check.fail(f"{epath}.lag", "lag must be an integer or list of integers")
            continue
        value = _check_number(check, entry["value"], f"{epath}.value")
        if value is not None:
            table[tuple(lag)] = value
    return table or None


def _parse_params(check, doc, path, table, kind, what):
    """The parameters ``table`` gives ``kind``, each required and checked by
    its rule, as constructor keywords; None once a violation is recorded.
    Every other parameter of the table is not one of ``what``."""
    params = table[kind]
    kwargs = {}
    for key, rule in params.items():
        value = check.require(doc, key, path)
        if value is not None:
            value = (_parse_table(check, value, f"{path}.{key}") if rule is None
                     else _check_number(check, value, f"{path}.{key}", **rule))
        kwargs[key] = value
    for key in _names(table):
        if key in doc and key not in params:
            check.fail(f"{path}.{key}", f"not a parameter of {what}")
    return None if None in kwargs.values() else kwargs


def _parse_factor(check, doc, path):
    if not check.mapping(doc, _FACTOR_KEYS, path, "factor must be a mapping"):
        return None
    family = check.choice(doc, "family", path, _FAMILY_PARAMS, "family")
    if family is None:
        return None
    dim = _check_number(check, doc.get("dim", 1), f"{path}.dim", kind=int, minimum=1)
    kwargs = _parse_params(check, doc, path, _FAMILY_PARAMS, family, f"family {family!r}")
    if dim is None or kwargs is None:
        return None
    return _construct(check, path, FactorCovariance, family=family, dim=dim, **kwargs)


def _parse_covariance(check, doc, path="covariance"):
    if not check.mapping(doc, _COV_KEYS, path):
        return None
    structure = check.choice(doc, "structure", path,
                             (SEPARABLE, GNEITING, ADDITIVE, ISOTROPIC), "structure")
    if structure is None:
        return None
    raw = check.require(doc, "factors", path)
    if isinstance(raw, list) and raw:
        # parse on past a bad factor, so one pass reports every violation
        factors = tuple(_parse_factor(check, f, f"{path}.factors[{i}]")
                        for i, f in enumerate(raw))
    else:
        factors = (None,)
        if raw is not None:
            check.fail(f"{path}.factors", "must be a nonempty list")
    kwargs = {"structure": structure, "factors": factors}
    if structure == ADDITIVE:
        weights = check.require(doc, "weights", path)
        kwargs["weights"] = weights if weights is None else _numbers(
            check, weights, f"{path}.weights", "must be a list of two numbers",
            fits=lambda v: len(v) == 2, positive=True)
    elif "weights" in doc:
        check.fail(f"{path}.weights", "only additive structures take weights")
    if structure == ISOTROPIC:
        dims = check.require(doc, "block_dims", path)
        kwargs["block_dims"] = dims if dims is None else _numbers(
            check, dims, f"{path}.block_dims", "must be a nonempty list", kind=int, minimum=1)
    elif "block_dims" in doc:
        check.fail(f"{path}.block_dims", "only isotropic structures declare block dims")
    if None in factors or None in kwargs.values():
        return None
    return _construct(check, path, CompositeCovariance, **kwargs)


def _parse_phi(check, doc, path="phi"):
    if not check.mapping(doc, _PHI_KEYS, path):
        return None
    kind = check.choice(doc, "kind", path, _PHI_PARAMS, "phi kind")
    if kind is None:
        return None
    kwargs = _parse_params(check, doc, path, _PHI_PARAMS, kind, f"{kind} phi")
    if kwargs is None:
        return None
    return _construct(check, path, HermiteSpec, kind=kind, **kwargs)


def _parse_rung(check, doc, path):
    """One ladder entry: a list with one size (int) or size list per block."""
    if not isinstance(doc, list) or not doc:
        check.fail(path, "rung must be a nonempty list of block sizes")
        return None
    blocks = []
    for i, entry in enumerate(doc):
        if isinstance(entry, int) and not isinstance(entry, bool):
            entry = [entry]
        blocks.append(_numbers(check, entry, f"{path}[{i}]",
                               "block sizes must be an integer or list of integers",
                               kind=int, minimum=1))
    if None in blocks:
        return None
    return _construct(check, path, LatticeSpec, blocks=tuple(blocks))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML config, reporting every violation at once."""
    check = _Check()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"(document): not valid YAML: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["(document): top level must be a mapping"])
    check.mapping(doc, _TOP_KEYS, "")
    schema = check.require(doc, "schema", "")
    if schema is not None and (isinstance(schema, bool) or schema != SCHEMA_VERSION):
        check.fail("schema", f"unsupported schema version {schema!r}")
    label = doc.get("label", "")
    if not isinstance(label, str):
        check.fail("label", "must be a string")
        label = ""
    problem = _label_problem(label)
    if problem:
        check.fail("label", problem)
    cov = phi = ladder = None
    raw_cov = check.require(doc, "covariance", "")
    if raw_cov is not None:
        cov = _parse_covariance(check, raw_cov)
    raw_phi = check.require(doc, "phi", "")
    if raw_phi is not None:
        phi = _parse_phi(check, raw_phi)
    raw_lattice = check.require(doc, "lattice", "")
    if raw_lattice is not None and check.mapping(raw_lattice, {"ladder"}, "lattice"):
        raw_ladder = check.require(raw_lattice, "ladder", "lattice")
        if raw_ladder is not None:
            if not isinstance(raw_ladder, list) or not raw_ladder:
                check.fail("lattice.ladder", "must be a nonempty list of rungs")
            else:
                ladder = [
                    _parse_rung(check, rung, f"lattice.ladder[{i}]")
                    for i, rung in enumerate(raw_ladder)
                ]
    replicates = _check_number(
        check, doc.get("replicates", 200), "replicates", kind=int, minimum=1
    )
    seed = _check_number(check, doc.get("seed", 0), "seed", kind=int, minimum=0)
    outputs = doc.get("outputs", ["normality"])
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        check.fail("outputs", "must be a list of output names")
    else:
        for i, name in enumerate(outputs):
            if name not in OUTPUTS:
                check.fail(f"outputs[{i}]", f"unknown output {name!r}")
    growth = doc.get("growth")
    if growth is not None:
        growth = _numbers(check, growth, "growth", "must be a list of per-block exponents",
                          fits=lambda v: True, minimum=0.0)
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


def _params_doc(obj, params) -> dict:
    """``obj``'s values of ``params``, as its config document holds them."""
    return {
        key: getattr(obj, key) if rule is not None else [
            {"lag": list(lag), "value": value}
            for lag, value in sorted(getattr(obj, key).items())
        ]
        for key, rule in params.items()
    }


def _config_doc(config: ExperimentConfig) -> dict:
    """The config as the plain document its YAML form holds; ModelError
    for a custom phi, which has no config form."""
    phi, cov = config.phi, config.covariance
    if phi.kind not in _PHI_PARAMS:
        raise ModelError(f"a {phi.kind} phi has no config form")
    cov_doc = {
        "structure": cov.structure,
        "factors": [
            {"family": f.family, **({"dim": f.dim} if f.dim != 1 else {}),
             **_params_doc(f, _FAMILY_PARAMS[f.family])}
            for f in cov.factors
        ],
    }
    if cov.weights is not None:
        cov_doc["weights"] = list(cov.weights)
    if cov.structure == ISOTROPIC:
        cov_doc["block_dims"] = list(cov.block_dims)
    doc = {
        "schema": SCHEMA_VERSION,
        "label": config.label,
        "covariance": cov_doc,
        "phi": {"kind": phi.kind, **_params_doc(phi, _PHI_PARAMS[phi.kind])},
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
