"""One workload in one process, started by run.py.

Prints ``ready`` once set-up is done (library import, config parsing,
input generation), then measures and prints ``result <json>``.  A fresh
process per workload keeps its peak resident memory its own.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _import_library():
    """Import permboot from this checkout's source tree, never from an
    installed copy."""
    sys.path.insert(0, SRC)
    import permboot

    package_dir = os.path.join(SRC, "permboot")
    if os.path.dirname(os.path.abspath(permboot.__file__)) != package_dir:
        raise SystemExit(f"permboot imported from {permboot.__file__}, not {package_dir}")


def _blas_threads():
    """Default thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(nproc, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0], xs[0]]
    return statistics.quantiles(xs, n=4)


def _unit(wl, parallel, run=None):
    """Run one unit; returns (seconds, unit)."""
    t0 = perf_counter()
    unit = run() if run else wl.run_unit(parallel)
    return perf_counter() - t0, unit


class Run:
    """Outputs, checks and failure counts over every unit of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.reference = None
        self.first_stats = None
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def record(self, unit, label):
        stats = self.wl.stats(unit)
        self.attempted += stats["attempted"]
        self.failed += stats["failed"]
        outputs = self.wl.outputs(unit)
        if self.reference is None:
            self.reference, self.first_stats = outputs, stats
        elif outputs != self.reference:
            self.problems.append(f"{label} unit: outputs differ from the first unit")
        self.problems += self.wl.check(unit)

    def result(self, metrics, extra):
        self.problems += self.wl.final_check()
        return {
            "correct": not self.problems,
            "problems": self.problems[:20],
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "extra": extra,
        }


def _pass_frac(stats):
    """Share of pass/fail judgements that passed: covariance cells,
    shrinking ladders and exhaustive-verify cells together."""
    return stats["passed"] / stats["judged"] if stats["judged"] else 0.0


def measure(wl, seconds):
    """Alternate 1-thread and nproc units until the time is up.  The
    first unit warms caches and lazy imports and is checked, not timed.
    Each part of a unit is timed too; part medians are printed only.

    peak_rss_mb is the peak after set-up and that first 1-thread unit.
    The peak of an nproc unit depends on how its concurrent replicates'
    allocations happen to overlap, so it is printed only."""
    run = Run(wl)
    times = {False: [], True: []}
    part_times = {False: {name: [] for name in wl.parts}, True: {name: [] for name in wl.parts}}
    deadline = perf_counter() + seconds
    first = wl.run_unit(False)
    run.record(first, "warm-up")
    peak_rss_mb = _peak_rss_mb()
    parallel = False
    while perf_counter() < deadline or not times[True]:
        dt, unit = _unit(wl, parallel)
        times[parallel].append(dt)
        for name, part_dt in wl.part_seconds.items():
            part_times[parallel][name].append(part_dt)
        run.record(unit, "nproc" if parallel else "1-thread")
        parallel = not parallel
    series = {"wall_s": times[False], "wall_s.nproc": times[True]}
    for name in wl.parts:
        series[f"{name}.wall_s"] = part_times[False][name]
        series[f"{name}.wall_s.nproc"] = part_times[True][name]
    medians = {key: statistics.median(xs) for key, xs in series.items()}
    extra = {
        "samples": {key: {"n": len(xs), "quartiles": _quartiles(xs)}
                    for key, xs in series.items()},
        "draws_per_s": wl.draws_per_unit / medians["wall_s"] if wl.draws_per_unit else None,
        "fail_frac": run.failed / run.attempted,
        "pass_frac": _pass_frac(run.first_stats),
        "verify.dataset_retries": run.first_stats["dataset_retries"],
        "peak_rss_mb.all": _peak_rss_mb(),
    }
    for name, stats in wl.part_stats(first).items():
        wall = medians[f"{name}.wall_s"]
        draws = wl.part_draws[name]
        extra[f"{name}.wall_s"] = wall
        extra[f"{name}.wall_s.nproc"] = medians[f"{name}.wall_s.nproc"]
        extra[f"{name}.draws_per_s"] = draws / wall if draws else None
        extra[f"{name}.pass_frac"] = _pass_frac(stats)
    metrics = {
        "wall_s": medians["wall_s"],
        "wall_s.nproc": medians["wall_s.nproc"],
        "peak_rss_mb": peak_rss_mb,
    }
    return run.result(metrics, extra)


def trace(wl, seconds):
    """Alternate untraced and traced 1-thread units until the time is up,
    after one untimed warm-up unit."""
    from tracing import Tracer

    run = Run(wl)
    tracer = Tracer()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    run.record(wl.run_unit(False), "warm-up")
    while perf_counter() < deadline or not traced:
        dt, unit = _unit(wl, False)
        plain.append(dt)
        run.record(unit, "untraced")
        tracer.install()
        try:
            dt, unit = _unit(wl, False, lambda: tracer.unit(lambda: wl.run_unit(False)))
        finally:
            tracer.uninstall()
        traced.append(dt)
        run.record(unit, "traced")
    if not tracer.counts_repeat():
        run.problems.append("traced units made different call counts")
    metrics = tracer.summary()
    metrics["verify.dataset_retries"] = run.first_stats["dataset_retries"]
    metrics["verify.pass_frac"] = _pass_frac(run.first_stats)
    metrics["trace.wall_s"] = statistics.fmean(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    extra = {"units": {"untraced": len(plain), "traced": len(traced)}}
    return run.result(metrics, extra)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # runs the cleanup below

    nproc = len(os.sched_getaffinity(0))
    _import_library()
    import workloads

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        wl = workloads.build(args.workload, args.seed, nproc, args.tiny, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = (trace if args.trace else measure)(wl, args.seconds)
        result["provenance"] = provenance(nproc, args.seed)
        print("result " + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
