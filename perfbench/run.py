#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload smallbank --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (an optimized CMake build of
../src plus the benchmark program) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set, then runs one measurement.
The last line of stdout is the JSON result; build output goes to stderr.
With --trace 1 the recorded spans are also written to
<build dir>/spans/<workload>-seed<seed>.csv.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("smallbank", "freehealth", "smallbank_r2")
# Each run must end within 180 s; leave room for the incremental build check.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(build_dir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(span_dir, f"{args.workload}-seed{args.seed}.csv")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
