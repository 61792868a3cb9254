#!/usr/bin/env python3
"""zakwave benchmark: one workload per process.

    python3 benchmarks/run.py --workload stability --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 24

Workloads: stability, ensemble, solitary, spectra (see README.md).  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics.
Run from anywhere: paths are taken relative to this file's checkout.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 5
# The load runs in this one process; BLAS gets one thread so that eigh
# timings do not depend on how many cores are free.
BLAS_THREADS = 1
END_TO_END_UNITS = {"wall_p90_s": "s", "setup_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("stability", "ensemble", "solitary", "spectra")


def limit_blas_threads() -> None:
    n = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def program_missing() -> str:
    """The sources the workloads need, if any of them is missing."""
    for rel in (("src", "zakwave", "__init__.py"),
                ("scripts", "perturbation_scaling.py")):
        if not os.path.isfile(os.path.join(ROOT, *rel)):
            return os.path.join(*rel)
    return ""


def import_program():
    """Put this checkout's src first on the path and import the workloads."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import zakwave

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(zakwave.__file__).startswith(src):
        raise ImportError(f"zakwave imported from {zakwave.__file__}, not {src}")
    import workloads

    return workloads


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy as np

    blas = lapack = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
        lapack = f"{deps['lapack']['name']} {deps['lapack'].get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "lapack": lapack,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "fft": "numpy.fft (pocketfft)",
    }


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to the workload being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
    # perf_counter is CLOCK_MONOTONIC, shared by the two processes
    return float(proc.stdout.split()[-1]) - t0


def timed_pass(wl, workloads):
    t0 = perf_counter()
    try:
        result = wl.run_pass()
    except Exception:
        result = workloads.PassResult(
            ops=[workloads.Op("pass", False, traceback.format_exc(limit=3))])
    return perf_counter() - t0, result


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def describe(values) -> str:
    if len(values) == 1:
        return "1 sample"
    return (f"{len(values)} samples; median {statistics.median(values):.6g}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def run_workload(args) -> int:
    workloads = import_program()
    wl_cls = workloads.WORKLOADS[args.workload]
    if args.probe_setup:
        wl_cls(ROOT, WORK, args.seed).setup()
        print(repr(perf_counter()))
        return 0

    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = wl_cls(ROOT, workdir, args.seed)
        wl.setup()
        wl.warmup()
        walls, traced_walls, layers, results = [], [], [], []
        tracer = None
        begin = perf_counter()
        while True:
            wall, result = timed_pass(wl, workloads)
            walls.append(wall)
            results.append(result)
            if args.trace:
                from spans import Tracer, layer_metrics

                tracer = Tracer()
                tracer.install()
                try:
                    wall, result = timed_pass(wl, workloads)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                results.append(result)
                layers.append(layer_metrics(tracer))
            elapsed = perf_counter() - begin
            if elapsed * (1 + 1 / len(walls)) > args.seconds:
                break
        if tracer is not None:
            trace_path = os.path.join(WORK, f"trace-{args.workload}.tsv.gz")
            tracer.write(trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in results for op in r.ops]
    failed = [op for op in ops if not op.ok]
    correct = all(op.known_defect for op in failed)
    name = args.workload
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    for op in failed:
        tag = "known defect" if op.known_defect else "FAILED"
        print(f"{name} {tag}: {op.name}: {op.detail}")
    print(f"{name} ops_failed_frac {len(failed) / len(ops):.6g} "
          f"({len(failed)} failed of {len(ops)} attempted, "
          f"{sum(op.known_defect for op in failed)} of them known defects)")

    if args.trace:
        from spans import PER_LAYER_UNITS

        metrics = {}
        for key, unit in PER_LAYER_UNITS.items():
            if key == "trace.overhead_s":
                value = p90(traced_walls) - p90(walls)
            else:
                value = statistics.median(layer[key] for layer in layers)
            metrics[key] = {"value": value, "unit": unit}
            print(f"{name} {key} {value:.6g} {unit}")
        print(f"{name} traced wall_p90_s {p90(traced_walls):.6g} s "
              f"({describe(traced_walls)}); untraced {p90(walls):.6g} s; "
              f"spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        wall = p90(walls)
        values = {
            "wall_p90_s": (wall, "90th percentile of warm passes; " + describe(walls)),
            "setup_s": (statistics.median(setups),
                        "median of fresh processes; " + describe(setups)),
            "work_per_s": (wl.work_per_pass / wall,
                           f"{wl.work_metric}: {wl.work_per_pass} per pass / wall_p90_s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "peak resident memory of this process"),
        }
        metrics = {}
        for key, unit in END_TO_END_UNITS.items():
            value, note = values[key]
            metrics[key] = {"value": value, "unit": unit}
            print(f"{name} {key} {value:.6g} {unit} ({note})")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows, totals, correct = [], [0, 0], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        totals[0] += result["attempted"]
        totals[1] += result["failed"]
        for key, m in result["metrics"].items():
            rows.append((name, key, m["value"], m["unit"]))
    print(f"{'workload':<10} {'metric':<34} {'value':>14} unit")
    for name, key, value, unit in rows:
        print(f"{name:<10} {key:<34} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": totals[0], "failed": totals[1],
                      "metrics": {f"{n}.{k}": {"value": v, "unit": u}
                                  for n, k, v, u in rows}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0,
                    help="measuring time of one run (default 24, as in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    missing = program_missing()
    if missing:
        print(f"error: {missing} not found under {ROOT}; run from a zakwave "
              "checkout", file=sys.stderr)
        return 2
    limit_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
