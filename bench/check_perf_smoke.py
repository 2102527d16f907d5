#!/usr/bin/env python3
"""CI perf-smoke gate: compare micro_components output to the reference.

Usage: check_perf_smoke.py <benchmark-json> <reference-json>

The benchmark JSON is google-benchmark's --benchmark_format=json
output; the reference (bench/perf_reference.json) carries per-leg
real_time nanoseconds and the relative tolerance. The gated legs are
exactly the reference's: BM_DramAccess, BM_XtaLookup, BM_RemapLookup
and BM_SramCacheAccess. Each leg is judged by its `median` aggregate
only, so the benchmark must run with --benchmark_repetitions (CI uses
5): one repetition slowed by a noisy runner cannot fail the gate. A
gated leg fails when median > reference * (1 + tolerance); a gated leg
with no median in the benchmark output also fails (a renamed or
deleted leg must update the reference, and a run without repetitions
must not fall back to gating on one noisy row). Exit 0 = all legs
within tolerance, 1 = regression or missing leg, 2 = usage error.

Stdlib only — CI must not need pip.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    with open(sys.argv[2]) as f:
        ref = json.load(f)

    tolerance = float(ref["tolerance"])
    medians = {}
    for b in bench.get("benchmarks", []):
        if (b.get("run_type") != "aggregate"
                or b.get("aggregate_name") != "median"):
            continue
        # Normalize to nanoseconds regardless of the leg's display unit.
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b["time_unit"]]
        medians[b["run_name"]] = float(b["real_time"]) * scale

    failed = False
    for name, ref_ns in sorted(ref["reference_ns"].items()):
        limit = ref_ns * (1.0 + tolerance)
        got = medians.get(name)
        if got is None:
            print(f"FAIL {name}: not present (run with "
                  f"--benchmark_repetitions; renamed/deleted legs must "
                  f"update the reference)")
            failed = True
            continue
        verdict = "FAIL" if got > limit else "ok"
        print(f"{verdict:4s} {name}: {got:.2f} ns median "
              f"(reference {ref_ns:.2f} ns, limit {limit:.2f} ns)")
        if got > limit:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
