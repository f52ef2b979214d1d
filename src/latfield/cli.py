"""Config parsing, subcommand dispatch, and result persistence.

Configs are YAML documents with a versioned schema.  Parsing checks only
the shape of the document (its mappings, known and required keys, the
``structure``, ``family`` and ``kind`` choices, and its lists) and maps it
onto the model constructors, which check every value; a config is written
back as ``harness.config_document``.  Parsing collects every violation
(each tagged with its key path, a constructor's at the path of the model
it builds) before failing, so a bad config is fixed in one pass: only a
missing or unknown ``structure``, ``family`` or ``kind``, which decides
the keys its mapping takes, ends the walk of that mapping.  Persistence is
append-only: existing files are never overwritten, collisions get a
numeric suffix.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import os
import sys
from pathlib import Path
from typing import Optional

import yaml

from . import __version__
from ._errors import ConfigError, ModelError, NumericalError, param_names
from .chaoscalc import chaos_report
from .covariance import (
    ADDITIVE,
    FAMILY_PARAMS,
    GNEITING,
    ISOTROPIC,
    SEPARABLE,
    TABULATED,
    CompositeCovariance,
    FactorCovariance,
)
from .fieldsim import LatticeSpec, build_sampler
from .harness import (
    SCHEMA_VERSION,
    ExperimentConfig,
    config_document,
    config_fingerprint,
    run_experiment,
)
from .hermite import CUSTOM, KIND_PARAMS, HermiteSpec, hermite_coefficients, hermite_rank
from .ratelab import classify, fbs_regime, rate_g

#: the phi kinds a config can hold: a custom phi's callable has no YAML form
_PHI_KINDS = {kind: params for kind, params in KIND_PARAMS.items() if kind != CUSTOM}

_TOP_KEYS = {
    "schema", "label", "covariance", "phi", "lattice",
    "replicates", "seed", "outputs", "growth",
}
_COV_KEYS = {"structure", "factors", "weights", "block_dims"}
_FACTOR_KEYS = {"family", "dim", *param_names(FAMILY_PARAMS)}
_PHI_KEYS = {"kind", *param_names(_PHI_KINDS)}


# ---------------------------------------------------------------------------
# config schema


def _overlap(path, other) -> bool:
    """Whether one of two document paths is the other or lies inside it."""
    return (path == other or path.startswith((f"{other}.", f"{other}["))
            or other.startswith((f"{path}.", f"{path}[")))


class _Check:
    """Accumulates (path, message) violations while walking the key tree."""

    def __init__(self):
        self.violations = []

    def fail(self, path, message):
        self.violations.append((path, message))

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

    def attempt(self, path, make, **kwargs):
        """make(**kwargs), or None once each violation of its ModelError is
        recorded at ``path`` joined with its key.  A part that did not parse
        is passed as None, its violations already recorded: a keyed violation
        whose path overlaps one of those repeats them, and is left out."""
        reported = [where for where, _ in self.violations]
        try:
            return make(**kwargs)
        except ModelError as exc:
            for key, message in exc.violations:
                where = f"{path}.{key}" if path and key and key[0] != "[" else path + key
                if not key or not any(_overlap(where, other) for other in reported):
                    self.fail(where, message)
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
        table[tuple(lag)] = entry["value"]
    return table or None


def _parse_factor(check, doc, path):
    if not check.mapping(doc, _FACTOR_KEYS, path, "factor must be a mapping"):
        return None
    family = check.choice(doc, "family", path, FAMILY_PARAMS, "family")
    if family is None:
        return None
    kwargs = {key: value for key, value in doc.items() if key in _FACTOR_KEYS}
    if family == TABULATED and "table" in kwargs:
        kwargs["table"] = _parse_table(check, kwargs["table"], f"{path}.table")
    return check.attempt(path, FactorCovariance, **kwargs)


def _parse_covariance(check, doc, path="covariance"):
    if not check.mapping(doc, _COV_KEYS, path):
        return None
    structure = check.choice(doc, "structure", path,
                             (SEPARABLE, GNEITING, ADDITIVE, ISOTROPIC), "structure")
    if structure is None:
        return None
    raw, factors = check.require(doc, "factors", path), None
    if isinstance(raw, list) and raw:
        # parse on past a bad factor, so one pass reports every violation
        factors = tuple(_parse_factor(check, f, f"{path}.factors[{i}]")
                        for i, f in enumerate(raw))
    elif raw is not None:
        check.fail(f"{path}.factors", "must be a nonempty list")
    return check.attempt(path, CompositeCovariance, structure=structure, factors=factors,
                         weights=doc.get("weights"), block_dims=doc.get("block_dims"))


def _parse_phi(check, doc, path="phi"):
    if not check.mapping(doc, _PHI_KEYS, path):
        return None
    if check.choice(doc, "kind", path, _PHI_KINDS, "phi kind") is None:
        return None
    return check.attempt(path, HermiteSpec,
                         **{key: value for key, value in doc.items() if key in _PHI_KEYS})


def _parse_rung(check, doc, path):
    """One ladder entry: a list with one size (int) or size list per block."""
    if not isinstance(doc, list) or not doc:
        check.fail(path, "rung must be a nonempty list of block sizes")
        return None
    blocks = []
    for i, entry in enumerate(doc):
        if isinstance(entry, int) and not isinstance(entry, bool):
            entry = [entry]
        elif not isinstance(entry, list) or not entry:
            check.fail(f"{path}[{i}]", "block sizes must be an integer or list of integers")
            entry = None
        blocks.append(entry)
    return check.attempt(path, LatticeSpec, blocks=blocks)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML config onto the model constructors, reporting every
    violation at once."""
    check = _Check()
    try:
        doc = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past Python's digit limit
        raise ConfigError([f"(document): not valid YAML: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["(document): top level must be a mapping"])
    check.mapping(doc, _TOP_KEYS, "")
    schema = check.require(doc, "schema", "")
    if schema is not None and (isinstance(schema, bool) or schema != SCHEMA_VERSION):
        check.fail("schema", f"unsupported schema version {schema!r}")
    fields = {
        "label": doc.get("label", ""),
        "replicates": doc.get("replicates", 200),
        "seed": doc.get("seed", 0),
        "outputs": doc.get("outputs", ["normality"]),
        "growth": doc.get("growth"),
    }
    raw_cov = check.require(doc, "covariance", "")
    cov = None if raw_cov is None else _parse_covariance(check, raw_cov)
    raw_phi = check.require(doc, "phi", "")
    phi = None if raw_phi is None else _parse_phi(check, raw_phi)
    ladder = None
    raw_lattice = check.require(doc, "lattice", "")
    if raw_lattice is not None and check.mapping(raw_lattice, {"ladder"}, "lattice"):
        ladder = check.require(raw_lattice, "ladder", "lattice")
        if isinstance(ladder, list) and ladder:
            rungs = [_parse_rung(check, rung, f"lattice.ladder[{i}]")
                     for i, rung in enumerate(ladder)]
            ladder = None if None in rungs else rungs
    config = check.attempt("", ExperimentConfig, covariance=cov, phi=phi, ladder=ladder,
                           **fields)
    if check.violations:
        raise ConfigError(f"{path}: {message}" for path, message in check.violations)
    return config


def _config_doc(config: ExperimentConfig) -> dict:
    """``config_document(config)``; ModelError for a custom phi, which has
    no config form."""
    if config.phi.kind == CUSTOM:
        raise ModelError(f"a {config.phi.kind} phi has no config form")
    return config_document(config)


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


def _check_out(out):
    """ModelError unless the ``--out`` path ``out`` is a directory, or can
    be made one: its nearest existing path is a writable directory."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not (path.is_dir() and os.access(path, os.W_OK | os.X_OK)):
                raise ModelError(f"--out: {path} is not a writable directory")
            return


def _load_config(args) -> ExperimentConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"--config: {exc}") from None
    config = parse_config(text)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _write_json(out_dir, stem, doc):
    """Write ``doc`` to ``{stem}.json`` (suffixed on collision) in the
    ``--out`` directory ``out_dir`` and say so; nothing without ``--out``."""
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _reserve(out_dir, stem, (".json",))[".json"]
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


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
    _write_json(args.out, (config.label or "config") + "-spectrum",
                {"label": config.label, "spectra": rows})
    return 0


def _cmd_chaos(args) -> int:
    config = _load_config(args)
    rank = hermite_rank(hermite_coefficients(config.phi))
    reports = []
    for lattice in config.ladder:
        try:
            rep = chaos_report(config.covariance, lattice, rank)
        except (ModelError, NumericalError) as exc:
            note = f"chaos report unavailable: {exc}"
            reports.append({"notes": [note]})
            print(f"n={lattice.n_total}: {note}")
            continue
        reports.append(_doc(rep))
        tv = "n/a" if rep.tv_bound is None else f"{rep.tv_bound:.6g}"
        print(f"n={lattice.n_total}: variance={rep.variance:.6g} "
              f"kappa4={rep.fourth_cumulant:.6g} "
              f"(exact={rep.fourth_exact}) tv_bound={tv}")
    _write_json(args.out, (config.label or "chaos") + "-chaos",
                {"label": config.label, "q": rank, "rungs": reports})
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
    _write_json(args.out, (config.label or "classify") + "-classify",
                {"label": config.label, "q": rank, **_doc(verdict)})
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
    if (args.alpha is None) != (args.beta is None):
        print("rates: --alpha and --beta must be given together", file=sys.stderr)
        return 2
    if not args.hurst and args.alpha is None:
        print("rates: nothing to do (pass --hurst and/or --alpha/--beta)", file=sys.stderr)
        return 2
    sizes = args.sizes or [10**4]
    # every row and the regime before any is printed: a refused value prints none
    rows = [{"hurst": h, "rates": {str(n): rate_g(args.q, h, n) for n in sizes}}
            for h in args.hurst or ()]
    verdict = None if args.alpha is None else fbs_regime(args.alpha, args.beta, args.q)
    doc = {"q": args.q, "rows": rows}
    for row in rows:
        rendered = "  ".join(f"g(N={n})={row['rates'][str(n)]:.6g}" for n in sizes)
        print(f"q={args.q} H={row['hurst']}: {rendered}")
    if verdict is not None:
        doc["regime"] = _doc(verdict)
        print(f"regime({args.alpha}, {args.beta}, q={args.q}): "
              f"{verdict.verdict}"
              + (f", case {verdict.case}" if verdict.case else ""))
        for label, term in verdict.normalization.items():
            print(f"  normalization {label}: exponent {term['exponent']:.6g}, "
                  f"log exponent {term['log_exponent']:.6g}")
    _write_json(args.out, "rates", doc)
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out is not None:  # a path error ends the run before any work
            _check_out(args.out)
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
