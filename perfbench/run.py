#!/usr/bin/env python3
"""Build msim's benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper|memstall|serve \
        --seed N --seconds S --trace 0|1 [--smoke] [--corrupt-golden]

The benchmark binary is configured and built with CMake under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to standard error, so the last line of standard output is
the binary's JSON result. Traced runs also write a Chrome trace-event
file, trace-<workload>.json, into the same build directory.

Exit status: the binary's, or 1 when the build fails (for example in
a directory that holds only the benchmark and not msim's sources).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configure (once) and build; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "msim-perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "msim-perfbench"


def workload_of(args):
    for i, a in enumerate(args):
        if a == "--workload" and i + 1 < len(args):
            return args[i + 1]
    return "unknown"


def main() -> int:
    args = sys.argv[1:]
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [str(binary)] + args
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        cmd += ["--trace-out", str(out / f"trace-{workload_of(args)}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
