"""latfield's benchmark.

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout.  For one workload this script computes
the references (refs.py, in this process), then starts worker.py once per
round, one process at a time, until ``--seconds`` have passed, and then
set-up-only workers until set-up has been timed SETUP_SAMPLES times.  A
round runs every operation of the workload once.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload both
ways and prints each metric on its own line before that JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

#: set-up is timed in at least this many processes; set-up-only ones are
#: added after the rounds when the rounds were fewer
SETUP_SAMPLES = 5
#: a run must end within 180 s: every worker is stopped past this
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "covariance.embedding_s": "s",
    "covariance.embedding_points": "count",
    "fieldsim.build_sampler_s": "s",
    "fieldsim.draw_s": "s",
    "fieldsim.draw_p50_ms": "ms",
    "fieldsim.draw_p99_ms": "ms",
    "fieldsim.draw_samples": "count",
    "fieldsim.normals_per_replicate": "count",
    "fieldsim.kept_fraction": "ratio",
    "fieldsim.sampler_mb": "MB",
    "functionals.evaluate_s": "s",
    "harness.run_experiment_s": "s",
    "harness.self_s": "s",
    "harness.worker_busy_fraction": "ratio",
    "harness.normality_report_s": "s",
    "harness.exact_moments_s": "s",
    "chaoscalc.chaos_report_s": "s",
    "chaoscalc.fourth_cumulant_s": "s",
    "chaoscalc.tv_bound_s": "s",
    "chaoscalc.contraction_norm_s": "s",
    "chaoscalc.contraction_norm_calls": "count",
    "chaoscalc.variance_hermite_s": "s",
    "chaoscalc.variance_hermite_calls": "count",
    "oracle.functional_moment_s": "s",
    "oracle.wick_moment_calls": "count",
    "cli.parse_config_s": "s",
    "cli.persist_result_s": "s",
    "bench.trace_overhead_s": "s",
}


class BenchError(Exception):
    pass


def _threads():
    return len(os.sched_getaffinity(0))


def _worker_env(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # at most nproc threads compute at once: the Monte Carlo workloads run
    # nproc harness threads, so BLAS stays on one; the chaos workload runs
    # one Python thread, so BLAS gets nproc
    blas = str(_threads()) if workload == "chaos-ladder" else "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas
    return env


def _spawn(args, work_dir, kind, deadline, trace_file=None):
    """Start worker.py for one round of ``kind``; return (set-up seconds,
    stdout lines after READY).  The worker is killed past ``deadline``."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", str(work_dir), "--threads", str(_threads()), "--round", kind]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    lines = queue.Queue()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(args.workload),
                            stdout=subprocess.PIPE, text=True)

    def pump():
        for line in proc.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        ready_at = None
        after = []
        while True:
            try:
                at, line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise BenchError(f"worker stopped after {time.perf_counter() - start:.0f} s")
            if line is None:
                break
            if ready_at is None and line == "READY":
                ready_at = at
            elif ready_at is not None:
                after.append(line)
        code = proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=5.0)
    if code != 0 or ready_at is None:
        raise BenchError(f"worker exited with code {code}"
                         + ("" if ready_at else " before it was set up"))
    if kind != "setup-only" and not after:
        raise BenchError("worker printed no result")
    return ready_at - start, after


def run_workload(args):
    """Run one workload; return the result object the benchmark prints."""
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads  # numpy only; latfield is imported by the workers

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    spec = workloads.spec(args.workload, args.seed)
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    setup, rounds, traces = [], [], []
    try:
        (work_dir / "refs.json").write_text(json.dumps(workloads.references(spec)))
        start = time.perf_counter()
        while True:
            # a traced run alternates plain and traced rounds, plain first
            kind = "traced" if args.trace and len(rounds) % 2 else "plain"
            trace_file = None
            if kind == "traced":
                trace_file = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}-{len(rounds)}.json"
            seconds, lines = _spawn(args, work_dir, kind, deadline, trace_file)
            setup.append(seconds)
            rounds.append((kind, json.loads(lines[-1])))
            if trace_file is not None:
                traces.append(json.loads(trace_file.read_text()))
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or len(traces) >= 1):
                break
        if not args.trace:
            while len(setup) < SETUP_SAMPLES:
                setup.append(_spawn(args, work_dir, "setup-only", deadline)[0])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for kind, doc in rounds:
        if doc["attempted"] != workloads.operations_per_round(spec):
            raise BenchError(f"a round attempted {doc['attempted']} operations")
        for problem in doc["problems"]:
            print(f"{args.workload}: {problem}", file=sys.stderr)
    for fault, problems in rounds[0][1]["known_faults"].items():
        print(f"{args.workload}: known fault, counted as failed: {fault}: "
              + "; ".join(problems), file=sys.stderr)
    plain = [doc for kind, doc in rounds if kind == "plain"]
    if args.trace:
        values = tracing.layer_metrics(traces)
        traced = [doc["wall"] for kind, doc in rounds if kind == "traced"]
        values["bench.trace_overhead_s"] = (
            statistics.median(traced) - statistics.median(d["wall"] for d in plain))
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(d["wall"] for d in plain),
            "cpu_s": statistics.median(d["cpu"] for d in plain),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in plain),
        }
        units = END_TO_END
    return {
        "correct": not any(doc["problems"] for _, doc in rounds),
        "attempted": sum(doc["attempted"] for _, doc in rounds),
        "failed": sum(doc["failed"] for _, doc in rounds),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def run_all(args):
    """Every workload, untraced then traced, one metric per line."""
    sys.path.insert(0, str(HERE))
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            one = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            result = run_workload(one)
            print(f"{name} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
            for metric, m in result["metrics"].items():
                print(f"  {name} {metric} = {m['value']:.6g} {m['unit']}", flush=True)
                summary["metrics"][f"{name}.{metric}"] = m
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
    return summary


def main():
    parser = argparse.ArgumentParser(description="latfield benchmark")
    parser.add_argument("--workload", required=True,
                        help="mc-separable, mc-additive, mc-small, chaos-ladder or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="whole rounds run until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "latfield" / "__init__.py").is_file():
        print(f"no latfield package under {SRC}: run from a latfield checkout",
              file=sys.stderr)
        return 2
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (BenchError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
