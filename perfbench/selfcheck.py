#!/usr/bin/env python3
"""Self-check of the pipeline benchmark: runs every workload at a tiny scale,
traced and untraced, and asserts that the result line carries exactly the
metrics BENCHMARK.json names, with their units, every value finite, and that
no correctness check or query failed.

    python3 perfbench/selfcheck.py

Run from the repository root; takes well under a minute after the build.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, table in tables.items():
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "0.5", "--trace", str(trace), "--scale", "0.05"],
                capture_output=True, text=True,
            )
            where = f"{workload} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{where}: exit {out.returncode}: {out.stderr.strip()[-500:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}: {out.stderr.strip()[-500:]}")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in table}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in table})}")
            for m in table:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                if got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got['unit']} != {m['unit']}")
                if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                    problems.append(f"{where}: {m['name']} value {got['value']!r} is not finite")
            print(f"{where}: {len(metrics)} metrics, {result['attempted']} checks, {result['failed']} failed")
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
