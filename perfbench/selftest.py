#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--workloads paper,memstall,serve]

For every workload, with --smoke and a one-second budget, it checks:

- every end-to-end metric (--trace 0) and every per-layer metric
  (--trace 1) named in BENCHMARK.json appears with its unit;
- success_rate is 1.0 and the result is correct with nothing failed;
- sim_cycles and sim_instructions repeat exactly under another seed,
  the exact-counter digests repeat across seeds and between the
  traced and untraced runs, and so do the per-layer metrics derived
  only from exact counters;
- a deliberately corrupted golden output is counted as a failed
  operation (correct false, failed >= 1, exit code still 0);
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes; prints each failed check otherwise.
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics that are ratios of exact counters: they must not
# depend on the seed or on tracing.
EXACT_LAYERS = re.compile(
    r"^(core\.ff_share|core\.acct\..*|pu\..*|arb\..*|ring\..*|"
    r"predict\..*|mem\..*|exp\.paper_speedup_err|sim\.cache_hit_rate)$")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    digest = re.search(r"exact digest: run=(\w+) components=(\w+)",
                       proc.stdout)
    return proc, result, digest.groups() if digest else None


def check_metrics(result, specs, what):
    metrics = result["metrics"]
    for m in specs:
        got = metrics.get(m["name"])
        check(got is not None and got["unit"] == m["unit"] and
              isinstance(got["value"], (int, float)),
              f"{what}: {m['name']} reported in {m['unit']}")
    check(set(metrics) == {m["name"] for m in specs},
          f"{what}: no metrics beyond BENCHMARK.json")


def test_workload(w, spec):
    print(f"== {w}")
    runs = {}
    for seed, trace in ((1, 0), (2, 0), (1, 1), (2, 1)):
        proc, result, digest = run(w, seed, trace)
        check(proc.returncode == 0 and result is not None,
              f"{w} seed {seed} trace {trace}: completes with a result")
        if result is None:
            print(proc.stderr[-2000:])
            return
        runs[(seed, trace)] = (result, digest)
        check(result["correct"] and result["failed"] == 0 and
              result["attempted"] >= 1,
              f"{w} seed {seed} trace {trace}: correct, nothing failed")
    e2e = [runs[(s, 0)][0] for s in (1, 2)]
    layers = [runs[(s, 1)][0] for s in (1, 2)]
    check_metrics(e2e[0], spec["end_to_end"], f"{w} trace 0")
    check_metrics(layers[0], spec["per_layer"], f"{w} trace 1")
    check(e2e[0]["metrics"]["success_rate"]["value"] == 1.0,
          f"{w}: success_rate is 1.0")
    for name in ("sim_cycles", "sim_instructions"):
        a, b = (r["metrics"][name]["value"] for r in e2e)
        check(a == b and a > 0, f"{w}: {name} repeats across seeds ({a})")
    digests = {key: d for key, (_, d) in runs.items()}
    check(len({d[0] for d in digests.values()}) == 1,
          f"{w}: run-counter digest repeats across seeds and tracing")
    check(digests[(1, 1)][1] == digests[(2, 1)][1],
          f"{w}: component-counter digest repeats across seeds")
    for name, m in layers[0]["metrics"].items():
        if EXACT_LAYERS.match(name):
            check(m["value"] == layers[1]["metrics"][name]["value"],
                  f"{w}: {name} repeats across seeds")

    proc, result, _ = run(w, 1, 0, "--corrupt-golden")
    check(proc.returncode == 0 and result is not None and
          not result["correct"] and result["failed"] >= 1 and
          result["metrics"]["success_rate"]["value"] < 1.0,
          f"{w}: a corrupted golden output counts as a failure")


def test_bare_directory():
    print("== bare directory")
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "memstall",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin:/usr/local/bin"})
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without msim's sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    for w in args.workloads.split(","):
        test_workload(w, spec)
    test_bare_directory()
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
