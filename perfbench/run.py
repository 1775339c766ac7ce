"""Benchmark runner for convexgof.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload small_tests --seed 1 --seconds 30 --trace 0

It imports ``convexgof`` from ``src/`` of that checkout, times a closed loop
of requests for about ``--seconds`` seconds (whole rounds of the workload's
request mix), checks every output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same loop runs with per-layer hooks installed and the metrics are the
per-layer ones, each divided by the number of rounds run.

``--workload all`` runs every workload in turn, each in its own process.
``--smoke`` shrinks B and the sample sizes and runs a single round, to check
every workload, check and hook in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny B and sizes, one round")
    p.add_argument("--setup-only", dest="setup_dir", default=None,
                   help=argparse.SUPPRESS)  # internal: one timed set-up in a fresh process
    return p.parse_args(argv)


def import_convexgof():
    """Import convexgof from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "convexgof" / "__init__.py").is_file():
        raise SystemExit(f"error: no convexgof sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import convexgof

    if Path(convexgof.__file__).resolve().parent != (SRC / "convexgof").resolve():
        raise SystemExit(f"error: convexgof was imported from {convexgof.__file__}")


def set_up(args, workdir: Path):
    """Import, generate inputs and run one warm-up call: what setup_s times."""
    import_convexgof()
    workload = WORKLOADS[args.workload](workdir, args.seed, args.smoke)
    workload.prepare()
    workload.warm_up()
    return workload


def time_set_ups(args, workdir: Path, count: int):
    """Median wall time of ``count`` set-ups, each in a fresh interpreter."""
    samples = []
    for i in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir / f"setup{i}")]
        if args.smoke:
            cmd.append("--smoke")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
    return statistics.median(samples), samples


def machine_record(seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "workload_seed": seed,
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_loop(workload, seconds, smoke):
    """Run whole rounds until the next one would end after ``seconds``."""
    rounds, t0 = 0, time.perf_counter()
    round_times = []
    while True:
        start = time.perf_counter()
        workload.run_round(rounds)
        round_times.append(time.perf_counter() - start)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if smoke or elapsed + statistics.fmean(round_times) > seconds:
            return rounds, round_times


def gmean_case_median(results, time_of):
    by_case = {}
    for r in results:
        by_case.setdefault(r.case, []).append(time_of(r))
    medians = [statistics.median(v) for v in by_case.values()]
    return math.exp(statistics.fmean(math.log(m) for m in medians))


def end_to_end(workload, setup_s):
    """The end-to-end metrics every workload reports, plus their raw-time forms."""
    results = workload.results
    stats = sum(r.stats for r in results)
    gated = {
        "setup_s": (setup_s, "s"),
        "latency_ref": (gmean_case_median(results, lambda r: r.seconds / r.ref), "ref"),
        "null_stats_per_ref": (stats / sum(r.seconds / r.ref for r in results), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "latency_ms": (1e3 * gmean_case_median(results, lambda r: r.seconds), "ms"),
        "null_stats_per_s": (stats / sum(r.seconds for r in results), "1/s"),
        "reference_ms": (1e3 * statistics.median(r.ref for r in results), "ms"),
    }
    return gated, raw


def run_one(args):
    if args.setup_dir is not None:
        set_up(args, Path(args.setup_dir))
        return 0
    import_convexgof()
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, setup_samples = time_set_ups(args, workdir, 1 if args.smoke else SETUP_SAMPLES)
        workload = set_up(args, workdir / "main")
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            workload.tracer = tracer.install()
        try:
            rounds, round_times = run_loop(workload, args.seconds, args.smoke)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.finish_timing()
        workload.check()
        return report(args, workload, tracer, rounds, round_times, setup_s, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass


def report(args, workload, tracer, rounds, round_times, setup_s, setup_samples):
    results = workload.results
    failed = [r for r in results if r.problems]
    for r in failed[:10]:
        print(f"FAILED {r.case}: {'; '.join(r.problems)}", file=sys.stderr)
    cases, cases_ref = {}, {}
    for r in results:
        cases.setdefault(r.case, []).append(r.seconds * 1e3)
        cases_ref.setdefault(r.case, []).append(r.seconds / r.ref)
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_record(args.seed),
        "rounds": rounds,
        "round_s_median": statistics.median(round_times),
        "setup_s_samples": setup_samples,
        "case_median_ms": {c: statistics.median(v) for c, v in cases.items()},
        "case_median_ref": {c: statistics.median(v) for c, v in cases_ref.items()},
        "case_count": {c: len(v) for c, v in cases.items()},
        "sha256": workload.digests,
        "diagnostics": workload.diagnostics,
    }
    e2e, raw = end_to_end(workload, setup_s)
    detail["raw_time_metrics"] = {name: value for name, (value, _) in raw.items()}
    print(json.dumps({"record": detail}, sort_keys=True))
    named_views = workload.summary()
    print(f"# {workload.name}: {rounds} rounds, {len(results)} requests, "
          f"round {detail['round_s_median']:.3f} s median")
    for name, (value, unit) in {**e2e, **raw}.items():
        print(f"{name:>28} {value:12.4f} {unit}")
    for name, (value, unit, n) in named_views.items():
        print(f"{name:>28} {value:12.4f} {unit}  (n={n})")
    print(f"{'error_rate':>28} {len(failed) / max(len(results), 1):12.4f} "
          f"failed/attempted  ({len(failed)}/{len(results)})")
    if tracer is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    else:
        layers = tracer.layer_metrics(rounds)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(args):
    """Run every workload in its own process, relaying its output."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
