#!/usr/bin/env python3
"""flowgnn benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Builds the workload's inputs from --seed (set up several times; the median
is `setup_s`), then calls the library in a closed loop until --seconds have
passed, checking every iteration's outputs. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the loop alternates
untraced and traced iterations and reports per-layer metrics per traced
iteration plus the tracing overhead. `--workload all` runs the workloads of
BENCHMARK.json in turn, each in its own process. `ingest` is not among them
and runs only by name. Exit code 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BLAS_THREADS = 1          # pinned; must not exceed nproc
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = (5, 15)   # at least 5; more while they take under SETUP_BUDGET_S
SETUP_BUDGET_S = 4.0
WORKLOAD_NAMES = ("train", "pretrain", "ingest", "score-wide")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    import numpy
    return {"blas_threads": BLAS_THREADS,
            "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(values) -> str:
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def run_loop(workload, state, seconds: float, tracer=None):
    """Closed loop until `seconds` pass. With a tracer, even iterations run
    untraced and odd ones traced. Returns (iterations, error)."""
    iterations = []
    started = time.perf_counter()
    while (len(iterations) < (2 if tracer else 1)
           or time.perf_counter() - started < seconds):
        traced = tracer is not None and len(iterations) % 2 == 1
        gc.collect()   # every iteration starts from the same collector state
        if traced:
            tracer.install()
        try:
            iterations.append((traced, workload.iterate(state)))
        except Exception:  # any library failure ends the run as incorrect
            return iterations, traceback.format_exc()
        finally:
            if traced:
                tracer.uninstall()
    return iterations, None


def run_workload(args) -> int:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args)
    env["params"] = workload.params
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, default=list))

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        least, most = SETUP_REPEATS if args.trace == 0 else (1, 1)
        while len(setup_times) < least or (len(setup_times) < most and
                                           sum(setup_times) < SETUP_BUDGET_S):
            state = None
            gc.collect()
            started = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - started)
        # The inputs live for the whole run; keep them out of the collector's
        # scans as a fresh CLI process would not have them at all.
        gc.collect()
        gc.freeze()
        tracer = tracing.Tracer() if args.trace else None
        iterations, error = run_loop(workload, state, args.seconds, tracer)
        steps = workload.steps(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [it for _, it in iterations]
    problems = [p for it in done for p in it.problems]
    attempted = sum(it.attempted for it in done)
    failed = sum(it.failed for it in done)
    if error is not None:
        print(error, file=sys.stderr, end="")
        problems.append("iteration raised: " + error.strip().splitlines()[-1])
        attempted += steps
        failed += steps
    print(f"iterations {len(done)}")

    if args.trace == 0:
        metrics = {}
        if done:
            rates = [it.rate for it in done]
            metrics["throughput"] = (statistics.median(rates), "items/s")
            for name in done[0].named:
                values = [it.named[name][0] for it in done]
                print(f"{name} {statistics.median(values)!r} "
                      f"{done[0].named[name][1]} ({spread(values)})")
            print(f"throughput {metrics['throughput'][0]!r} items/s "
                  f"(items are {workload.unit}; {spread(rates)})")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        print(f"setup_s {metrics['setup_s'][0]!r} s ({spread(setup_times)})")
        print(f"peak_rss_mb {metrics['peak_rss_mb'][0]!r} MB")
    else:
        untraced = [it.wall_s for traced, it in iterations if not traced]
        traced = [it.wall_s for traced, it in iterations if traced]
        metrics = {}
        if untraced and traced:
            overhead = statistics.median(traced) - statistics.median(untraced)
            metrics, silent = tracing.layer_metrics(
                tracer, len(traced), args.workload, overhead,
                statistics.fmean(traced))
            for name in silent:
                problems.append(f"span {name} never fired on {args.workload}")
            for name, (value, unit) in sorted(metrics.items()):
                print(f"{name} {value!r} {unit}")
            print(f"tracing overhead {overhead:+.4f} s per iteration "
                  f"({overhead / statistics.median(untraced):+.2%} of "
                  f"{statistics.median(untraced):.4f} s untraced)")
            print("absent spans: " + (", ".join(tracer.absent) or "none"))
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "traced_iterations": len(traced),
                "columns": ["name", "start_ns", "end_ns", "parent", "hook_ns"],
                "spans": tracer.records}), encoding="utf-8")
            print(f"spans: {len(tracer.records)} -> {trace_file.relative_to(ROOT)}")

    declared = {m["name"] for m in benchmark_spec()[
        "end_to_end" if args.trace == 0 else "per_layer"]}
    if done and set(metrics) != declared:
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ declared)}")
    print(f"op_failure_rate {failed / max(1, attempted)!r} "
          f"(failed {failed} of {attempted} attempted)")
    for problem in problems:
        print(f"check FAILED: {problem}")
    correct = not problems and bool(done)
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_all(args) -> int:
    """Every workload of BENCHMARK.json in turn, each in a fresh process;
    one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in benchmark_spec()["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if BLAS_THREADS > len(os.sched_getaffinity(0)):
        raise SystemExit("BLAS_THREADS exceeds the available processors")
    for var in BLAS_ENV:           # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "flowgnn" / "__init__.py").is_file():
        print(f"error: flowgnn sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
