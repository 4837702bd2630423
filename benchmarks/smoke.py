"""Smoke check of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and asserts
that each run is correct, emits every metric BENCHMARK.json names with
its unit, and that the traced self times add up to the traced wall
time.  Run from the repository root:

    python3 benchmarks/smoke.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class SmokeFailure(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise SmokeFailure(message)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n"
           f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, declared, label):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    expect(result["correct"] is True, f"{label}: not correct")
    expect(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: failures")
    metrics = result["metrics"]
    expect(set(metrics) == set(declared),
           f"{label}: missing {sorted(set(declared) - set(metrics))}, "
           f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        expect(metrics[name]["unit"] == unit, f"{label}: {name} has the wrong unit")
        expect(math.isfinite(metrics[name]["value"]), f"{label}: {name} is not finite")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check(run(workload, 0), end_to_end, f"{workload} untraced")
        traced = run(workload, 1)
        check(traced, per_layer, f"{workload} traced")
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        self_sum = sum(v for k, v in metrics.items()
                       if k.endswith("_s") and not k.startswith("trace."))
        wall = metrics["trace.wall_s"]
        expect(abs(self_sum - wall) <= 0.01 * wall,
               f"{workload}: self times sum to {self_sum}, traced wall is {wall}")
        print(f"ok  {workload}: {len(end_to_end)} end-to-end and {len(per_layer)} "
              f"per-layer metrics; self times {self_sum:.6f} s of traced wall {wall:.6f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
