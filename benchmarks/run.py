"""permboot benchmark: two workloads, end-to-end metrics, traced split.

Run from the repository root:

    python3 benchmarks/run.py                       # every workload
    python3 benchmarks/run.py --workload ladder-cli --seed 3 --seconds 55
    python3 benchmarks/run.py --workload mc --trace 1
    python3 benchmarks/run.py --workload mc-survival --trace 1   # one part alone

With ``--trace 0`` each workload prints its end-to-end metrics, with
``--trace 1`` its per-module split (see NOTES.md).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is nonzero when a
correctness check fails or the library cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("mc", "ladder-cli")
# each part of a workload can also run alone, for diagnosis
PARTS = ("mc-plain", "mc-survival", "ladder", "kernel-cli")

# Process starts per run whose set-up time is measured; the median is setup_s.
SETUP_SAMPLES = 3
# Each workload must end well within three minutes.
TIME_LIMIT_S = 170

UNITS = {
    "setup_s": "s", "wall_s": "s", "wall_s.nproc": "s", "peak_rss_mb": "MB",
    "peak_rss_mb.all": "MB",
    "draws_per_s": "1/s", "fail_frac": "ratio", "pass_frac": "ratio",
    "verify.dataset_retries": "count", "verify.pass_frac": "ratio",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(args, deadline, setup_only=False):
    """Start a worker; returns (setup seconds, result dict or None)."""
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line == "ready\n" and setup_s is None:
                setup_s = perf_counter() - t0
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
        code = proc.wait()
    except BaseException:
        proc.terminate()  # the worker removes its work directory on SIGTERM
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise BenchError(f"{args.workload}: worker exited with code {code}")
    return setup_s, result


def run_workload(args, deadline):
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, deadline, setup_only=True)[0])
    setup_s, result = spawn(args, deadline)
    setups.append(setup_s)
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": statistics.median(setups), **metrics}
    result["provenance"]["git_revision"] = git_revision()
    return metrics, result


def _fmt(value):
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(args, metrics, result, units):
    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    lines = dict(metrics)
    if not args.trace:
        lines.update(result["extra"])
        samples = lines.pop("samples")
    for name, value in lines.items():
        if isinstance(value, dict):
            print(f"  {name:38s} {json.dumps(value)}")
            continue
        note = ""
        if not args.trace and name in samples:
            s = samples[name]
            note = f"  median of {s['n']} units, quartiles " + ", ".join(
                _fmt(q) for q in s["quartiles"])
        elif name == "setup_s":
            note = f"  median of {SETUP_SAMPLES} process starts"
        unit = units.get(name) or units.get(name.partition(".")[2], "")  # part metrics
        print(f"  {name:38s} {_fmt(value):>12s} {unit}{note}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return result["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + PARTS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "permboot", "__init__.py")):
        print(f"error: no permboot source tree under {ROOT}/src", file=sys.stderr)
        return 2

    # a terminated benchmark stops its worker too (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, BENCH_DIR)
    from tracing import span_metric_names

    units = {**UNITS, **span_metric_names()}
    ok = True
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = name
        try:
            metrics, result = run_workload(args, perf_counter() + TIME_LIMIT_S)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ok = report(args, metrics, result, units) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
