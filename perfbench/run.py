"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload lncl-sentiment --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory. ``--trace 0`` measures the end-to-end metrics of
``BENCHMARK.json`` with no wrapper installed. ``--trace 1`` alternates
untraced and traced jobs, prints the per-layer attribution table and the
tracing overhead, and reports the per-layer metrics. The last
line of standard output is the JSON result; a failed output check makes
``correct`` false and the exit code 1.
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
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
# One BLAS thread: the client is single-threaded, and a pinned count keeps
# both timing and floating-point results reproducible on a shared box.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the benchmark's self-test")
    return parser.parse_args(argv)


def load_catalog() -> dict:
    with open(ROOT / "BENCHMARK.json") as stream:
        spec = json.load(stream)
    return {
        "workloads": [entry["name"] for entry in spec["workloads"]],
        "end_to_end": {entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
        "per_layer": {entry["name"]: entry["unit"] for entry in spec["per_layer"]},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Drives one workload: set-up repeats, jobs until the time is up, checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.failures: list[str] = []   # what every failed check reported
        self.attempted = 0
        self.failed = 0                 # operations with at least one failed check

    def setups(self, seed: int, tracer=None) -> tuple[list[float], dict]:
        times, inputs = [], None
        for _ in range(SETUP_REPEATS):
            if inputs is not None:
                self.workload.close(inputs)
            setup = self.workload.setup if tracer is None else tracer.wrap("bench.setup", self.workload.setup)
            start = clock()
            inputs = setup(seed)
            times.append(clock() - start)
        return times, inputs

    def gate(self, inputs) -> None:
        if not self.workload.gated:
            return
        self.attempted += 1
        failures = self._guarded(self.workload.gate, inputs)
        if failures:
            self.failures += failures
            self.failed += 1

    def jobs(self, inputs, seconds: float, tracer=None) -> list:
        jobs = []
        deadline = clock() + seconds
        while True:
            gc.collect()  # every job starts from the same heap state
            job = self._guarded(self.workload.job, inputs, tracer)
            if job is None:
                self.attempted += 1
                break
            self.attempted += job.attempted
            self.failures += job.failures
            self.failed += min(len(job.failures), job.attempted)
            jobs.append(job)
            if clock() >= deadline:
                break
        return jobs

    def _guarded(self, fn, *args):
        try:
            return fn(*args)
        except Exception as error:  # reported as a failed operation, never swallowed silently
            traceback.print_exc()
            self.failures.append(f"{fn.__name__} raised {error!r}")
            self.failed += 1
            return None


def end_to_end(import_s, setup_times, jobs) -> dict:
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib(),
        "job_s": statistics.median(job.seconds for job in jobs),
        "inference_quality": statistics.median(job.quality for job in jobs),
    }


def print_lines(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    catalog = load_catalog()
    if args.workload not in catalog["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for variable in BLAS_VARIABLES:  # before numpy is first imported
        os.environ[variable] = str(BLAS_THREADS)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    start = clock()
    import repro  # noqa: F401  (timed: part of set-up)
    import_s = clock() - start

    from perfbench import report
    from perfbench.workloads import WORKLOADS

    workdir = OUT / f"tmp-{os.getpid()}"
    workload = WORKLOADS[args.workload](tiny=args.tiny, workdir=workdir)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))

    run = Run(workload)
    inputs = None
    try:
        if args.trace == 0:
            setup_times, inputs = run.setups(args.seed)
            run.gate(inputs)
            jobs = run.jobs(inputs, args.seconds)
            metrics = end_to_end(import_s, setup_times, jobs) if jobs else {}
            print(f"import {import_s:.4f} s, set-ups " + " ".join(f"{t:.4f}" for t in setup_times)
                  + " s, jobs " + " ".join(f"{job.seconds:.4f}" for job in jobs) + " s")
            if jobs:
                print_lines("workload metrics (untraced)", workload.text_metrics(jobs))
            units = catalog["end_to_end"]
        else:
            metrics = report.traced_run(run, args, import_s, catalog, OUT)
            units = catalog["per_layer"]
    finally:
        if inputs is not None:
            workload.close(inputs)
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(f"FAILED {failure}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        run.failures.append(f"metrics not measured: {missing}")
        print(f"FAILED metrics not measured: {missing}")
    correct = not run.failures
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": max(run.failed, int(not correct)),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    if args.trace == 0:
        print_lines("end-to-end metrics", [(n, m["value"], m["unit"]) for n, m in result["metrics"].items()])
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
