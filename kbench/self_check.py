#!/usr/bin/env python3
"""Self-check of the benchmark: every workload at a tiny size, in seconds.

Run from the repository root:

    python3 kbench/self_check.py

For each workload it runs `bash kbench/run.sh ... --tiny` untraced and
traced, and fails when
  * a run exits non-zero, reports `correct: false`, or fails a job;
  * a metric that BENCHMARK.json names is missing, has no unit, or has a
    unit other than the one BENCHMARK.json gives it;
  * the layers of the traced run miss the traced job latency by more than
    10% (`trace.coverage` outside [0.9, 1.1]).
"""

import json
import math
import subprocess
import sys

COVERAGE_TOLERANCE = 0.10


def run(workload, trace):
    # Traced runs get a few seconds: their coverage is a median over rounds.
    cmd = ["bash", "kbench/run.sh", "--workload", workload, "--seed", "7",
           "--seconds", str(1 + 2 * trace), "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(result, expected, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"attempted {result.get('attempted')}, failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"metric {name} is missing")
        elif not got.get("unit"):
            problems.append(f"metric {name} has no unit")
        elif got["unit"] != unit:
            problems.append(f"metric {name} has unit {got['unit']}, BENCHMARK.json says {unit}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"metric {name} has no finite value")
    return [f"{label}: {p}" for p in problems]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        problems += check(run(workload, 0), end_to_end, f"{workload} untraced")
        traced = run(workload, 1)
        problems += check(traced, per_layer, f"{workload} traced")
        coverage = traced.get("metrics", {}).get("trace.coverage", {}).get("value", 0)
        if abs(coverage - 1) > COVERAGE_TOLERANCE:
            problems.append(f"{workload} traced: layers sum to {coverage:.3f} of the traced job latency")
        print(f"{workload}: checked (trace.coverage {coverage:.3f})")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
