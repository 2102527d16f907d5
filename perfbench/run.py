#!/usr/bin/env python3
"""Run one workload of the simulator benchmark and print its result.

    python3 perfbench/run.py --workload h2-mix-high --seed 42 \
        --seconds 30 --trace 0

Run from the root of a source checkout. The first run builds the
simulator and the benchmark's h2perf program from source into
.bench_build/
(CMake, Release). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {"<name>": {"value": ..., "unit": "..."}}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json,
--trace 1 the per-layer ones. The line before it records the run's
context (host, build, commit) and the simulated results that serve as
its correctness output. perfbench/README.md defines every metric.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
H2PERF = os.path.join(BUILD, "h2perf")
WORKLOADS = ("h2-mix-high", "h2-xalanc-low", "sweep-lineup")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build h2perf (quick when nothing changed)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "h2perf",
                 "-j", jobs]):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out",
                    help="with --trace 1, write the final repetition's "
                         "spans to this CSV file")
    args = ap.parse_args()

    units = expected_metrics(args.trace)
    build()

    cmd = [H2PERF, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans_out:
        cmd += ["--spans-out", args.spans_out]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        fail("h2perf timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"h2perf exited with {proc.returncode}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("h2perf printed no result")

    measured = report.pop("metrics")
    metrics = {}
    correct = report["failed"] == 0
    for name, unit in units.items():
        value = measured.get(name)
        if value is None or not math.isfinite(value):
            correct = False
            report["errors"].append(f"metric {name} missing")
            continue
        metrics[name] = {"value": value, "unit": unit}

    report["commit"] = commit()
    report["wall_s"] = time.monotonic() - started
    print(json.dumps(report))
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
