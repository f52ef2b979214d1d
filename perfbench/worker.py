"""One round of one workload in a fresh process.

run.py starts this script and times it from process start to the line
``READY``, which it prints once latfield is imported, the inputs are
written and every config has been parsed.  Unless the round is
``setup-only`` it then reads the references, runs every operation of the
workload once (with the tracer installed for a ``traced`` round), checks
the outputs, and prints one JSON line.  Each round gets its own process,
as each ``latfield experiment`` does, so no round runs on memory or
caches a previous round left warm.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import latfield.chaoscalc
import latfield.cli
import latfield.covariance
import latfield.fieldsim
import latfield.harness
import latfield.oracle

import workloads
from tracing import Tracer

MODULES = {
    "chaoscalc": latfield.chaoscalc,
    "cli": latfield.cli,
    "fieldsim": latfield.fieldsim,
    "harness": latfield.harness,
    "oracle": latfield.oracle,
}


def _factor(doc):
    doc = dict(doc)
    if doc["family"] == "tabulated":
        doc["table"] = {(k,): v for k, v in enumerate(doc["table"])}
    return latfield.covariance.FactorCovariance(**doc)


def _model(item):
    cov = latfield.covariance.CompositeCovariance(
        latfield.covariance.SEPARABLE, tuple(_factor(f) for f in item["factors"]))
    lattice = latfield.fieldsim.LatticeSpec(tuple((n,) for n in item["sizes"]))
    return cov, lattice


class Experiments:
    """Monte Carlo workloads: one ``latfield experiment`` per config."""

    def __init__(self, spec, work_dir, threads):
        self.spec = spec
        self.threads = threads
        self.paths = []
        for exp in spec["experiments"]:
            path = work_dir / f"{exp['config']['label']}.yaml"
            text = json.dumps(exp["config"], indent=1)  # JSON is valid YAML
            path.write_text(text)
            latfield.cli.parse_config(text)
            self.paths.append(path)

    def run_round(self, out_dir, refs):
        """One outcome per rung: (problems, known fault or None)."""
        outcomes = []
        for exp, path, exp_refs in zip(self.spec["experiments"], self.paths, refs["experiments"]):
            label = exp["config"]["label"]
            argv = ["experiment", "--config", str(path), "--out", str(out_dir),
                    "--threads", str(self.threads)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = latfield.cli.main(argv)
            if code != 0:
                outcomes += [([f"{label}: latfield experiment exited {code}"], None)] * len(exp_refs)
                continue
            doc = json.loads((out_dir / f"{label}.json").read_text())
            reps = exp["config"]["replicates"]
            for i, (rung, ref) in enumerate(zip(doc["rungs"], exp_refs)):
                problems = workloads.check_rung(rung, ref, reps, exp["expect_non_gaussian"])
                # a known fault excuses the rung only when it shows as the fault
                wrong_variance = any(p.startswith("exact variance") for p in problems)
                outcomes.append(([f"{label} rung {i}: {p}" for p in problems],
                                 exp["known_fault"] if wrong_variance else None))
        return outcomes


class ChaosLadder:
    """Exact diagnostics: chaos_report rungs and pairing-oracle cases."""

    def __init__(self, spec):
        self.chaos = [(_model(item), item["q"]) for item in spec["chaos"]]
        self.oracle = [(_model(item), item["q"]) for item in spec["oracle"]]

    def run_round(self, out_dir, refs):
        chaoscalc, oracle = latfield.chaoscalc, latfield.oracle
        outcomes = []
        for ((cov, lattice), q), ref in zip(self.chaos, refs["chaos"]):
            rep = chaoscalc.chaos_report(cov, lattice, q)
            out = {"variance": rep.variance, "fourth_cumulant": rep.fourth_cumulant,
                   "fourth_exact": rep.fourth_exact, "tv_bound": rep.tv_bound,
                   "norms": {str(r): v for r, v in rep.contraction_norms.items()}}
            tag = f"chaos_report q={q} sizes {lattice.all_sizes}"
            outcomes.append(([f"{tag}: {p}" for p in workloads.check_chaos(out, ref)], None))
        for ((cov, lattice), q), ref in zip(self.oracle, refs["oracle"]):
            k4, exact = chaoscalc.fourth_cumulant(cov, lattice, q)
            out = {"m2": oracle.oracle_functional_moment(cov, lattice, q, order=2),
                   "m4": oracle.oracle_functional_moment(cov, lattice, q, order=4),
                   "variance": chaoscalc.variance_hermite(cov, lattice, q),
                   "fourth_cumulant": k4, "fourth_exact": exact}
            tag = f"oracle q={q} sizes {lattice.all_sizes}"
            outcomes.append(([f"{tag}: {p}" for p in workloads.check_oracle(out, ref)], None))
        return outcomes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--round", choices=("setup-only", "plain", "traced"), required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    work_dir = Path(args.work_dir)
    spec = workloads.spec(args.workload, args.seed)
    own_dir = work_dir / f"worker-{os.getpid()}"
    own_dir.mkdir(parents=True)
    try:
        if "experiments" in spec:
            workload = Experiments(spec, own_dir, args.threads)
        else:
            workload = ChaosLadder(spec)
        print("READY", flush=True)
        if args.round == "setup-only":
            return 0
        refs = json.loads((work_dir / "refs.json").read_text())
        out_dir = own_dir / "out"
        out_dir.mkdir()
        tracer = Tracer(MODULES) if args.round == "traced" else None
        if tracer is not None:
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outcomes = workload.run_round(out_dir, refs)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.write(Path(args.trace_file))
    finally:
        shutil.rmtree(own_dir, ignore_errors=True)
    failed = [(problems, fault) for problems, fault in outcomes if problems]
    known = {}
    for problems, fault in failed:
        if fault is not None:
            known.setdefault(fault, []).extend(problems)
    print(json.dumps({
        "attempted": len(outcomes),
        "failed": len(failed),
        "problems": [p for problems, fault in failed if fault is None for p in problems],
        "known_faults": known,
        "wall": wall,
        "cpu": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
