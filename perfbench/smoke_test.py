#!/usr/bin/env python3
"""Smoke test of the service benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of perfbench/workloads.json (the gated ones of
BENCHMARK.json and cold-distinct) briefly, untraced and traced, through
perfbench/run.py and checks that each run passes the correctness gate and
prints exactly the metrics BENCHMARK.json declares, each with its declared
unit.  Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    with open(os.path.join(root, "perfbench", "workloads.json")) as f:
        workloads = list(json.load(f))
    for name in workloads:
        for trace in (0, 1):
            cmd = ["python3", "perfbench/run.py", "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            p = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                               timeout=300)
            label = f"{name} --trace {trace}"
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"FAIL {label}: exit {p.returncode}\n{p.stderr}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"FAIL {label}: result keys {sorted(result)}")
            if result["correct"] is not True:
                sys.exit(f"FAIL {label}: correctness gate\n{p.stderr}")
            if result["attempted"] < 1 or result["failed"] != 0:
                sys.exit(f"FAIL {label}: attempted {result['attempted']}, "
                         f"failed {result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                sys.exit(f"FAIL {label}: metrics differ from BENCHMARK.json")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or \
                        not math.isfinite(v["value"]):
                    sys.exit(f"FAIL {label}: {k} = {v['value']!r}")
            print(f"ok   {label}: {result['attempted']} requests, "
                  f"{len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
