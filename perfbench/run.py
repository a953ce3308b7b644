#!/usr/bin/env python3
"""Builds the gncg benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ne-certify --seed 1 --seconds 20 --trace 0

The program is configured once into `.bench_build/perfbench` (or
`$CARGO_TARGET_DIR/perfbench` when that variable is set) and rebuilt
incrementally on every call.  Build output goes to stderr, so the last line
of stdout is always the program's JSON result.  `--workload all` runs every
workload in one process.  Exits nonzero, without a result line, when the
sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("ne-certify", "dynamics-euclid", "approx-geo-1e4", "paper-sweep")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(command):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode == 0


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no gncg sources at the repository root",
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", BENCH_DIR, "-B", out,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs]):
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    scratch = os.path.join(out, "runs")
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
