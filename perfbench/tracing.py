"""Spans and counters around the calls into latfield's modules.

The tracer wraps, from outside the package, the module-level names that
latfield's own code looks up at call time (``latfield.harness.draw``,
``latfield.chaoscalc.contraction_norm``, ...), so calls made inside the
package are caught too.  Spans are kept in memory under a lock, so worker
threads may record them, and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
import threading
import time


def _sampler_normals(sampler):
    """Standard normals one draw consumes: two per embedding point for the
    circulant methods, one per lattice point for the dense factor."""
    if sampler.sqrt_spectrum is not None:
        return 2 * sampler.sqrt_spectrum.size
    return sampler.lattice.n_total


def _sampler_bytes(sampler):
    table = sampler.sqrt_spectrum if sampler.sqrt_spectrum is not None else sampler.chol_factor
    return table.nbytes


# (module, attribute, span name, attributes read from (args, result))
_SPANS = (
    ("fieldsim", "embedding_spectrum", "covariance.embedding",
     lambda a, r: {"points": r.eigenvalues.size}),
    ("fieldsim", "composite_embedding_values", "covariance.embedding",
     lambda a, r: {"points": r.size}),
    ("harness", "build_sampler", "fieldsim.build_sampler",
     lambda a, r: {"bytes": _sampler_bytes(r)}),
    ("harness", "draw", "fieldsim.draw",
     lambda a, r: {"normals": _sampler_normals(a[0]), "values": r.values.size}),
    ("harness", "evaluate", "functionals.evaluate", None),
    ("harness", "_draw_values", "harness.draw_phase",
     lambda a, r: {"threads": a[3]}),
    ("cli", "run_experiment", "harness.run_experiment", None),
    ("harness", "normality_report", "harness.normality_report", None),
    ("harness", "variance_phi", "harness.exact_moments", None),
    ("harness", "additive_variance", "harness.exact_moments", None),
    ("chaoscalc", "chaos_report", "chaoscalc.chaos_report", None),
    ("chaoscalc", "fourth_cumulant", "chaoscalc.fourth_cumulant", None),
    ("chaoscalc", "tv_bound", "chaoscalc.tv_bound", None),
    ("chaoscalc", "contraction_norm", "chaoscalc.contraction_norm", None),
    ("chaoscalc", "variance_hermite", "chaoscalc.variance_hermite", None),
    ("oracle", "oracle_functional_moment", "oracle.functional_moment", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "persist_result", "cli.persist_result", None),
)
# called thousands of times per round: counted, not timed
_COUNTS = (("oracle", "wick_moment", "oracle.wick_moment"),)
# spans that mark a phase of their parent rather than a child layer
_MARKERS = ("harness.draw_phase", "harness.run_experiment")


class Tracer:
    def __init__(self, latfield_modules):
        self.modules = latfield_modules
        self.spans = []          # [name, start, end, thread, parent, attrs]
        self.counts = {}         # name -> calls
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals = []

    def _span_wrapper(self, original, name, attrs):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, threading.get_ident(),
                                     stack[-1] if stack else -1, None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans[index][1:3] = [start, end]
            if attrs is not None:
                note = attrs(args, result)
                with tracer._lock:
                    tracer.spans[index][5] = note
            return result

        return traced

    def _count_wrapper(self, original, name):
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return original(*args, **kwargs)

        return counted

    def install(self):
        for module, attr, name, attrs in _SPANS:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self._span_wrapper(original, name, attrs))
        for module, attr, name in _COUNTS:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self._count_wrapper(original, name))

    def uninstall(self):
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    def write(self, path):
        doc = {
            "fields": ["name", "start", "end", "thread", "parent", "attrs"],
            "spans": self.spans,
            "counts": self.counts,
        }
        path.write_text(json.dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _round_metrics(spans, calls):
    """Per-layer values of one traced round."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def busy(name):
        return sum(s[2] - s[1] for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s[5][key] for s in by_name.get(name, ()) if s[5])

    draws = by_name.get("fieldsim.draw", ())
    normals = total("fieldsim.draw", "normals")
    self_time = 0.0
    for parent in by_name.get("harness.run_experiment", ()):
        inside = [(s[1], s[2]) for s in spans
                  if s[0] not in _MARKERS and parent[1] <= s[1] and s[2] <= parent[2]]
        self_time += (parent[2] - parent[1]) - _covered(inside)
    phases = by_name.get("harness.draw_phase", ())
    capacity = sum((s[2] - s[1]) * s[5]["threads"] for s in phases if s[5])
    samplers = [s[5]["bytes"] for s in by_name.get("fieldsim.build_sampler", ()) if s[5]]
    return {
        "covariance.embedding_s": busy("covariance.embedding"),
        "covariance.embedding_points": total("covariance.embedding", "points"),
        "fieldsim.build_sampler_s": busy("fieldsim.build_sampler"),
        "fieldsim.draw_s": busy("fieldsim.draw"),
        "fieldsim.normals_per_replicate": normals / len(draws) if draws else 0.0,
        "fieldsim.kept_fraction": total("fieldsim.draw", "values") / normals if normals else 0.0,
        "fieldsim.sampler_mb": max(samplers, default=0) / 1e6,
        "functionals.evaluate_s": busy("functionals.evaluate"),
        "harness.run_experiment_s": busy("harness.run_experiment"),
        "harness.self_s": self_time,
        "harness.worker_busy_fraction":
            (busy("fieldsim.draw") + busy("functionals.evaluate")) / capacity if capacity else 0.0,
        "harness.normality_report_s": busy("harness.normality_report"),
        "harness.exact_moments_s": busy("harness.exact_moments"),
        "chaoscalc.chaos_report_s": busy("chaoscalc.chaos_report"),
        "chaoscalc.fourth_cumulant_s": busy("chaoscalc.fourth_cumulant"),
        "chaoscalc.tv_bound_s": busy("chaoscalc.tv_bound"),
        "chaoscalc.contraction_norm_s": busy("chaoscalc.contraction_norm"),
        "chaoscalc.contraction_norm_calls": len(by_name.get("chaoscalc.contraction_norm", ())),
        "chaoscalc.variance_hermite_s": busy("chaoscalc.variance_hermite"),
        "chaoscalc.variance_hermite_calls": len(by_name.get("chaoscalc.variance_hermite", ())),
        "oracle.functional_moment_s": busy("oracle.functional_moment"),
        "oracle.wick_moment_calls": calls,
        "cli.parse_config_s": busy("cli.parse_config"),
        "cli.persist_result_s": busy("cli.persist_result"),
    }


def _percentile(values, p):
    """Nearest-rank percentile: the smallest value with p% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def layer_metrics(traces):
    """Median over traced rounds of each per-layer value, plus draw-time
    percentiles pooled over all traced draws.  ``traces`` holds the
    documents ``Tracer.write`` wrote, one per traced round."""
    per_round = []
    draw_ms = []
    for doc in traces:
        spans = doc["spans"]
        per_round.append(_round_metrics(spans, doc["counts"].get("oracle.wick_moment", 0)))
        draw_ms += [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "fieldsim.draw"]
    out = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    out["fieldsim.draw_p50_ms"] = _percentile(draw_ms, 50) if draw_ms else 0.0
    out["fieldsim.draw_p99_ms"] = _percentile(draw_ms, 99) if draw_ms else 0.0
    out["fieldsim.draw_samples"] = len(draw_ms)
    return out
