#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark: every workload at tiny scale.

    python3 pipebench/smoke_test.py

Run from the repository root. Each workload runs once untraced and once
traced, with output verification on. The test fails when a run exits
non-zero, reports a wrong answer or a failed operation, or prints a
metric set or unit that differs from BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            timeout=900, check=False)
    if result.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            try:
                result = run(workload, trace)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
                assert result["correct"] is True, "outputs not correct"
                assert result["failed"] == 0, f"{result['failed']} failed operations"
                assert result["attempted"] >= 1, "nothing attempted"
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                assert units == expected[trace], (
                    f"metrics differ from BENCHMARK.json: "
                    f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
                print(f"ok   {workload} trace={trace}: {result['attempted']} operations")
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as error:
                failures.append(f"{workload} trace={trace}: {error}")
                print(f"FAIL {workload} trace={trace}: {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
