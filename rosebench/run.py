#!/usr/bin/env python3
"""Runs one workload of the Rose benchmark.

    python3 rosebench/run.py --workload catalogue-p1 --seed 1 --seconds 20 --trace 0

Builds the rosebench program from the repository's sources on first use (into
$CARGO_TARGET_DIR/rosebench, default .bench_build/rosebench, relative to the
repository root), then runs it. Its last line of standard output is
the result: one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to standard error. The exit code is the program's:
0 when every correctness gate passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalogue-p1", "catalogue-p4", "serve-mixed")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "rosebench")


def build(out):
    """Configures and builds the program; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "rosebench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "rosebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    program = build(out)
    if program is None:
        print("rosebench: build failed", file=sys.stderr)
        return 1
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", out]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
