"""Monte Carlo experiment runner and statistical verdicts.

An experiment walks a ladder of lattice windows, draws replicates of the
field, evaluates the functional, standardizes it (exactly when the
variance has a closed form), and reports normality statistics per rung;
a failure on the way names its rung.  A rung is drawn in blocks of
``Sampler.block_pairs`` replicate pairs, on a worker pool of its own when
it has several.  Results are deterministic given the config: replicate
streams are keyed by a global counter and aggregation reads a fixed slot
order, so thread scheduling cannot change a single bit of the output.

A config is one plain document (``config_document``): its YAML form, the
``config`` a result stores, and the text whose sha256 is the result's
``config_hash``.  Its rules live in ``check_config_fields``, which
``ExperimentConfig`` applies.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from ._errors import (COUNT, POSITIVE_COUNT, ModelError, NumericalError, checked_arg,
                      checked_number, refuse)
from ._gauss import kolmogorov_quantile, normal_cdf, normal_quantile
from .chaoscalc import ChaosReport, chaos_report, fourth_cumulant, variance_phi
# unused here; perfbench/tracing.py wraps harness.additive_variance by name
from .chaoscalc import additive_variance  # noqa: F401
from .covariance import FAMILY_PARAMS, ISOTROPIC, SEPARABLE, CompositeCovariance
from .fieldsim import SEED, LatticeSpec, build_sampler, draw, draw_pairs
from .functionals import evaluate
from .hermite import KIND_PARAMS, HermiteSpec, hermite_coefficients, hermite_rank
from .ratelab import checked_growth

#: version of the config document's schema
SCHEMA_VERSION = 1

OUTPUTS = ("normality", "kurtosis_series", "rate_fit", "chaos_reports")

#: a variance is used as exact only when its truncation bound is at most
#: this fraction of it; otherwise the rung is standardized empirically
EXACT_RTOL = 1e-9

#: two-sided level of the kurtosis confidence interval and the KS test
VERDICT_ALPHA = 0.01

#: the rule of a replicate count: every rung's normality report reads at least 100
REPLICATES = {**POSITIVE_COUNT, "minimum": 100}


def check_config_fields(fields: dict):
    """ExperimentConfig's rules over ``fields``, a mapping of its field
    names to values.  Returns the fields as a config holds them, and the
    (key path, message) of every violation."""
    checked, violations = dict(fields), []
    covariance = fields["covariance"]
    if not isinstance(covariance, CompositeCovariance):
        violations.append(("covariance", "must be a CompositeCovariance"))
    if not isinstance(fields["phi"], HermiteSpec):
        violations.append(("phi", "must be a HermiteSpec"))
    label = fields["label"]
    if not isinstance(label, str):
        violations.append(("label", "must be a string"))
    elif label in (".", "..") or any(c and c in label
                                     for c in ("/", os.sep, os.altsep, "\0")):
        # the label stems result file names, which must land inside --out
        violations.append(("label", "must be a plain file name, without path "
                                    f"separators, '.', '..' or NUL; got {label!r}"))
    ladder = fields["ladder"]
    if (not isinstance(ladder, (list, tuple)) or not ladder
            or not all(isinstance(l, LatticeSpec) for l in ladder)):
        violations.append(("lattice.ladder", "must be a nonempty list of rungs"))
    else:
        checked["ladder"] = ladder = tuple(ladder)
        totals = [l.n_total for l in ladder]
        if any(b <= a for a, b in zip(totals, totals[1:])):
            violations.append(("lattice.ladder", "must be strictly increasing in n_total"))
        blocks = covariance.blocks if isinstance(covariance, CompositeCovariance) else None
        violations += [(f"lattice.ladder[{i}]", f"has block dims {rung.block_dims}, but the "
                                                f"covariance has blocks {blocks}")
                       for i, rung in enumerate(ladder) if blocks not in (None, rung.block_dims)]
    checked["replicates"] = checked_number(
        violations, "replicates", fields["replicates"], **REPLICATES)
    checked["seed"] = checked_number(violations, "seed", fields["seed"], **SEED)
    outputs = fields["outputs"]
    if not isinstance(outputs, (list, tuple)) or not all(isinstance(o, str) for o in outputs):
        violations.append(("outputs", "must be a list of output names"))
    else:
        outputs = checked["outputs"] = tuple(outputs)
        for i, name in enumerate(outputs):
            if name not in OUTPUTS:
                violations.append((f"outputs[{i}]",
                                   f"must be one of {', '.join(OUTPUTS)}, got {name!r}"))
    checked["growth"] = checked_growth(
        violations, fields["growth"],
        covariance if isinstance(covariance, CompositeCovariance) else None)
    return checked, violations


@dataclass(frozen=True)
class ExperimentConfig:
    covariance: CompositeCovariance
    phi: HermiteSpec
    ladder: tuple                 # of LatticeSpec, strictly increasing
    replicates: int
    seed: int
    outputs: tuple = ("normality",)
    label: str = ""
    growth: Optional[tuple] = None  # per-block exponents for classification

    def __post_init__(self):
        checked, violations = check_config_fields(vars(self))
        refuse(violations, sep=" ")
        for name, value in checked.items():
            object.__setattr__(self, name, value)


def _params_doc(obj, params) -> dict:
    """``obj``'s values of ``params``, as its config document holds them: a
    lag table as its list of {lag, value} entries, a callable by its name."""
    doc = {}
    for key in params:
        value = getattr(obj, key)
        if isinstance(value, dict):
            value = [{"lag": list(lag), "value": v} for lag, v in sorted(value.items())]
        elif callable(value):
            value = getattr(value, "__name__", None)
        doc[key] = value
    return doc


def config_document(config: ExperimentConfig) -> dict:
    """The config as one plain document: what its YAML form holds, what a
    result stores as its ``config``, and what ``config_fingerprint``
    hashes.  A custom phi, which has no YAML form, is written as
    {kind: custom, func: <name>, qmax}."""
    phi, cov = config.phi, config.covariance
    cov_doc = {
        "structure": cov.structure,
        "factors": [
            {"family": f.family, **({"dim": f.dim} if f.dim != 1 else {}),
             **_params_doc(f, FAMILY_PARAMS[f.family])}
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
        "phi": {"kind": phi.kind, **_params_doc(phi, KIND_PARAMS[phi.kind])},
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


def config_fingerprint(config: ExperimentConfig) -> str:
    """sha256 of the sorted JSON text of ``config_document``: a result's
    ``config_hash`` is the hash of the ``config`` it stores."""
    text = json.dumps(config_document(config), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# sample statistics


@dataclass(frozen=True)
class NormalityReport:
    n: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    skewness: float
    skewness_se: float
    kurtosis: float               # excess
    kurtosis_se: float
    ks_stat: float


def _moment_stats(s1, s2, s3, s4, n):
    """(mean, variance ddof=1, skewness, excess kurtosis) from power sums."""
    s1, s2, s3, s4 = (np.asarray(s, dtype=float) for s in (s1, s2, s3, s4))
    mu = s1 / n
    m2 = s2 / n - mu**2
    m3 = s3 / n - 3.0 * mu * s2 / n + 2.0 * mu**3
    m4 = s4 / n - 4.0 * mu * s3 / n + 6.0 * mu**2 * s2 / n - 3.0 * mu**4
    var = m2 * n / (n - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = m3 / m2**1.5
        kurt = m4 / m2**2 - 3.0
    return mu, var, skew, kurt


def normality_report(samples) -> NormalityReport:
    """Moment statistics with jackknife standard errors, plus the
    one-sample Kolmogorov-Smirnov statistic against the standard normal.

    The jackknife runs in O(n): leave-one-out statistics come from the
    power sums S_k - x^k, so no resampling loop is needed.  It needs the
    replicate rule's minimum of samples, REPLICATES["minimum"].
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n < REPLICATES["minimum"]:
        raise ModelError(f"need at least {REPLICATES['minimum']} samples, got {n}")
    sums = [float(np.sum(x**k)) for k in (1, 2, 3, 4)]
    mean, var, skew, kurt = _moment_stats(*sums, n)
    if not var > 0.0 or not np.isfinite(skew):
        raise NumericalError("degenerate sample variance: statistics undefined")
    loo = _moment_stats(
        sums[0] - x, sums[1] - x**2, sums[2] - x**3, sums[3] - x**4, n - 1
    )
    ses = []
    for values in loo:
        values = np.asarray(values)
        if not np.all(np.isfinite(values)):
            raise NumericalError(
                "jackknife produced non-finite replicates: sample too degenerate"
            )
        ses.append(float(np.sqrt((n - 1.0) / n * np.sum((values - values.mean()) ** 2))))
    cdf = normal_cdf(np.sort(x))  # one-sample KS statistic: max of D+ and D-
    ks = max(float(np.max(np.arange(1.0, n + 1) / n - cdf)),
             float(np.max(cdf - np.arange(0.0, n) / n)))
    return NormalityReport(
        n=n,
        mean=float(mean),
        mean_se=ses[0],
        variance=float(var),
        variance_se=ses[1],
        skewness=float(skew),
        skewness_se=ses[2],
        kurtosis=float(kurt),
        kurtosis_se=ses[3],
        ks_stat=ks,
    )


def is_gaussian(report: NormalityReport, alpha: float = VERDICT_ALPHA) -> bool:
    """The declared finite-n decision rule: the (1-alpha) confidence
    interval of the excess kurtosis contains 0 AND the KS statistic stays
    below the level-alpha critical value, alpha in (0, 1)."""
    alpha = checked_arg("alpha", alpha, {"between": (0, 1)})
    z = normal_quantile(1.0 - alpha / 2.0)
    ks_critical = kolmogorov_quantile(alpha) / math.sqrt(report.n)
    return (
        abs(report.kurtosis) <= z * report.kurtosis_se
        and report.ks_stat < ks_critical
    )


def rate_fit(series):
    """Least-squares slope of log(value) against log(n).

    Returns (slope, stderr).  Needs at least 4 points, each a positive
    finite size and value (keyed series[i].size and series[i].value), and
    two distinct sizes.
    """
    violations = []
    pts = [(checked_number(violations, f"series[{i}].size", n, positive=True),
            checked_number(violations, f"series[{i}].value", v, positive=True))
           for i, (n, v) in enumerate(series)]
    if len(pts) < 4:
        raise ModelError("rate fits need at least 4 points")
    refuse(violations)
    if len({n for n, _ in pts}) == 1:
        raise ModelError("rate fits need at least two distinct sizes")
    logn = np.log([n for n, _ in pts])
    logv = np.log([v for _, v in pts])
    coeffs, cov = np.polyfit(logn, logv, 1, cov=True)
    return float(coeffs[0]), float(np.sqrt(cov[0, 0]))


# ---------------------------------------------------------------------------
# the experiment runner


@dataclass(frozen=True)
class RungResult:
    sizes: tuple
    n_total: int
    replicates: int
    stats: NormalityReport        # of the standardized samples
    raw_mean: float
    raw_variance: float
    exact_mean: float
    exact_variance: Optional[float]
    variance_source: str          # "exact" | "empirical"
    gaussian: bool
    chaos: Optional[ChaosReport] = None
    notes: tuple = ()


@dataclass(frozen=True)
class ExperimentResult:
    label: str
    config_hash: str
    version: str
    rungs: tuple
    verdict: Optional[str] = None            # "gaussian" | "non_gaussian"
    kurtosis_series: Optional[tuple] = None  # ((n, kurt, se), ...)
    rate: Optional[tuple] = None             # (slope, stderr)
    rate_source: Optional[str] = None
    notes: tuple = ()


def _exact_moments(cov, lattice, phi, a0):
    """(exact mean, exact variance or None, the note saying why it is None)."""
    mean = float(lattice.n_total) * float(a0)
    empirical = "standardized by the empirical spread"
    try:
        var = variance_phi(cov, lattice, phi)
    except (ModelError, NumericalError):
        return mean, None, f"no closed-form variance for this structure/size: {empirical}"
    if var.tail_bound > EXACT_RTOL * var.value:  # only a custom phi has a positive bound
        return mean, None, (
            f"chaos sum truncated at q = {phi.qmax} may miss up to "
            f"{var.tail_bound:.3g} of its variance {var.value:.6g}: {empirical}"
        )
    return mean, var.value, None


def _draw_values(config, sampler, rung_index, threads) -> np.ndarray:
    """The rung's values, in blocks of ``sampler.block_pairs`` pairs: inline
    for one block or one thread, else on a pool of ``threads`` for the rung."""
    reps = config.replicates
    pairs = (reps + 1) // 2
    values = np.empty(reps)
    base = rung_index * pairs  # first pair; no replicate pair spans two rungs
    size = sampler.block_pairs

    def work(first):
        # one block per unit, on one thread: one transform, every replicate
        # served from the workspace, one evaluate call
        count = min(size, pairs - first)
        draw_pairs(sampler, config.seed, base + first, count)
        lo, hi = 2 * first, min(2 * (first + count), reps)
        values[lo:hi] = evaluate([draw(sampler, config.seed, 2 * base + r)
                                  for r in range(lo, hi)], config.phi)

    blocks = range(0, pairs, size)
    if threads <= 1 or len(blocks) == 1:
        for first in blocks:
            work(first)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))
    return values


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Walk the ladder, draw, standardize, and report.

    ``threads`` worker threads draw the replicates, a count >= 0; 0 means
    one per CPU this process may run on.

    Deterministic given the config: each replicate's field is a pure
    function of the seed and its global index (replicates 2k and 2k+1
    share the stream of pair k), and every reduction reads slots in a
    fixed order regardless of the thread count.
    """
    threads = checked_arg("threads", threads, COUNT)
    if threads == 0:
        threads = _usable_cpus()
    cov = config.covariance
    coeffs = hermite_coefficients(config.phi)
    rank = hermite_rank(coeffs)
    rungs = []
    notes = []
    for idx, lattice in enumerate(config.ladder):
        tag = "x".join(str(n) for n in lattice.all_sizes)
        rung_notes = []
        try:
            sampler = build_sampler(cov, lattice)
            values = _draw_values(config, sampler, idx, threads)
            exact_mean, exact_var, why = _exact_moments(cov, lattice, config.phi, coeffs[0])
            if exact_var is not None:
                scale = math.sqrt(exact_var)
            else:
                scale = float(np.std(values, ddof=1))
                rung_notes.append(why)
            if not scale > 0.0:
                raise NumericalError("degenerate variance")
            stats = normality_report((values - exact_mean) / scale)
        except (ModelError, NumericalError) as exc:
            raise type(exc)(f"rung {idx} ({tag}): {exc}") from exc
        chaos = None
        if "chaos_reports" in config.outputs:
            try:
                chaos = chaos_report(cov, lattice, rank)
            except (ModelError, NumericalError) as exc:
                rung_notes.append(f"chaos report unavailable: {exc}")
        rungs.append(
            RungResult(
                sizes=lattice.all_sizes,
                n_total=lattice.n_total,
                replicates=config.replicates,
                stats=stats,
                raw_mean=float(np.mean(values)),
                raw_variance=float(np.var(values, ddof=1)),
                exact_mean=exact_mean,
                exact_variance=exact_var,
                variance_source="exact" if exact_var is not None else "empirical",
                gaussian=is_gaussian(stats),
                chaos=chaos,
                notes=tuple(rung_notes),
            )
        )
    verdict = None
    if "normality" in config.outputs:
        verdict = "gaussian" if rungs[-1].gaussian else "non_gaussian"
    kurt_series = None
    if "kurtosis_series" in config.outputs:
        kurt_series = tuple(
            (r.n_total, r.stats.kurtosis, r.stats.kurtosis_se) for r in rungs
        )
    rate = None
    rate_source = None
    if "rate_fit" in config.outputs:
        rate, rate_source, fit_notes = _fit_rate(cov, config.ladder, rank, rungs)
        notes.extend(fit_notes)
    return ExperimentResult(
        label=config.label,
        config_hash=config_fingerprint(config),
        version=__version__,
        rungs=tuple(rungs),
        verdict=verdict,
        kurtosis_series=kurt_series,
        rate=rate,
        rate_source=rate_source,
        notes=tuple(notes),
    )


def _fit_rate(cov, ladder, rank, rungs):
    """Fit the fourth-cumulant decay: exact values (from a rung's chaos report
    if it has one) when the model admits them at every rung, otherwise the
    magnitude of the empirical excess kurtosis."""
    notes = []
    series = None
    if cov.structure == SEPARABLE and rank >= 2:
        try:
            cumulants = [fourth_cumulant(cov, lattice, rank) if rung.chaos is None
                         else (rung.chaos.fourth_cumulant, rung.chaos.fourth_exact)
                         for lattice, rung in zip(ladder, rungs)]
        except (ModelError, NumericalError) as exc:
            notes.append(f"exact cumulant series unavailable: {exc}")
        else:
            bounds = [f"rung {idx} ({'x'.join(map(str, lattice.all_sizes))})"
                      for idx, (lattice, (_, exact)) in enumerate(zip(ladder, cumulants))
                      if not exact]
            if bounds:
                notes.append("exact cumulant series unavailable: kappa_4 is only "
                             f"an upper bound at {', '.join(bounds)}")
            else:
                series = [(lattice.n_total, kappa4)
                          for lattice, (kappa4, _) in zip(ladder, cumulants)]
                source = "exact-fourth-cumulant"
    if series is None:
        series = [(r.n_total, abs(r.stats.kurtosis)) for r in rungs]
        source = "empirical-kurtosis"
    try:
        fit = rate_fit(series)
    except ModelError as exc:
        notes.append(f"rate fit skipped: {exc}")
        return None, None, notes
    return fit, source, notes
