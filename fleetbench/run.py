#!/usr/bin/env python3
"""Builds the fleet benchmark from source and runs one workload.

Usage (from the root of a checkout):
    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/fleetbench (default .bench_build/fleetbench,
relative to the checkout root). The last line of standard output is the
benchmark's JSON result; build output goes to standard error. The exit code is
the benchmark's, or 1 when the build fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "fleetbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "fleetbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "fleetbench", "-j", "4"])
    for step in steps:
        subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "fleetbench")


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print(f"fleetbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("fleetbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
