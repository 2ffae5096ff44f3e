#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads paper,serve]
                                [--seconds S] [--out FILE]

Runs perfbench/run.py once per seed (--runs seeds from --first-seed)
on each workload with --trace 0 and prints, for every end-to-end
metric, the median and the interquartile distance
(statistics.quantiles(values, n=4)) as a share of the median, next
to the metric's bound in BENCHMARK.json. A spread
above a third of its bound is flagged. --out saves the raw results as
JSON so two sets taken at different times can be compared with
--compare A.json B.json: median of B against median of A, flagging
(and exiting 1 for) a metric that got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def report(results, bounds):
    worst = 0.0
    for workload, runs in results.items():
        print(f"== {workload} ({len(runs)} runs)")
        for name in runs[0]:
            med, s = spread([r[name] for r in runs])
            bound = bounds.get(name)
            flag = ""
            if bound:
                worst = max(worst, s / bound)
                flag = "  <-- above bound/3" if s > bound / 3 else ""
            print(f"  {name:18s} median {med:16.6f}  spread {s:7.4f}"
                  f"  bound {bound}{flag}")
    return worst


def compare(a, b, spec):
    worse_count = 0
    for workload in a:
        print(f"== {workload}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            ma = statistics.median(r[name] for r in a[workload])
            mb = statistics.median(r[name] for r in b[workload])
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            flag = "  <-- worse beyond bound" if worse > bound else ""
            worse_count += bool(flag)
            print(f"  {name:18s} {ma:16.6f} -> {mb:16.6f}"
                  f"  change {change:+.4f}  bound {bound}{flag}")
    return worse_count


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(a, b, spec) else 0
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for w in workloads:
        results[w] = [run_once(w, seed, seconds)
                      for seed in range(args.first_seed,
                                        args.first_seed + args.runs)]
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    worst = report(results, bounds)
    print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
