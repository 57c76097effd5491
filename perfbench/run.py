#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload <alloc-churn|miss-dense|fleet-live> \
        --seed N --seconds S --trace 0|1 [--scale F]

Run from the repository root. The benchmark is its own cargo package
(perfbench/Cargo.toml) built against the repository's crates by path; the build
goes to $CARGO_TARGET_DIR when set, else perfbench/target. The last line of
standard output is the result as one JSON object. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("alloc-churn", "miss-dense", "fleet-live")
# A run must end within 180 s; the benchmark's own watchdog fires at 170 s.
RUN_TIMEOUT_S = 175


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0, help="workload length multiplier (self-check)")
    args = parser.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    command = [
        os.path.join(target, "release", "djx-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", str(args.scale),
        "--out-dir", os.path.join(target, "perfbench-out"),
    ]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
