#!/usr/bin/env python3
"""Check how steady the benchmark is, and set its bounds with it.

    python3 perfbench/steady.py --workload h2-mix-high --runs 10
    python3 perfbench/steady.py --runs 10 --out a.json      # every workload
    python3 perfbench/steady.py --runs 10 --against a.json  # second set

Runs perfbench/run.py --runs times per workload, each with another seed
(--first-seed, --first-seed + 1, ...), and prints for every metric the
median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
the spread against the metric's bound in BENCHMARK.json: "ok" when the
spread is below a third of the bound. With --against, it also prints how
far each median moved from the earlier set, against the bound. It exits
non-zero when a run is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"steady: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(better, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return -change if better == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save the per-run values as JSON")
    ap.add_argument("--against", help="an earlier --out file to compare")
    args = ap.parse_args()

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m for m in group}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    values = {}
    all_correct = True
    for workload in args.workload or names:
        per_metric = values.setdefault(workload, {})
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds,
                              args.trace)
            if not result["correct"]:
                all_correct = False
                print(f"{workload} seed {args.first_seed + i}: NOT "
                      f"correct ({result['failed']} of "
                      f"{result['attempted']} failed)")
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])

        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in per_metric.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            line = (f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:8.4f}")
            m = bounds[name]
            if "bound" in m:
                verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
                line += f" {m['bound']:6.3f} {verdict}"
                before = earlier.get(workload, {}).get(name)
                if before:
                    drift = worse_by(m["better"],
                                     statistics.median(before), med)
                    line += (f"  worse by {drift:+.4f} "
                             f"{'ok' if drift <= m['bound'] else 'FAIL'}")
            print(line)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
