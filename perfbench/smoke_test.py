#!/usr/bin/env python3
"""Smoke test for the benchmark: python3 perfbench/smoke_test.py

Runs every workload at a tiny scale (run.py --smoke), untraced and once
traced, and asserts that each run checks its answers and emits every metric
named in BENCHMARK.json with its unit: the end-to-end metrics untraced, the
per-layer metrics traced. Exits 1 on the first problem.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1.5", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
    return json.loads(lines[-1])


def expect(result, wanted, what):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {what}: correct={result['correct']} attempted={result['attempted']} "
                 f"failed={result['failed']}")
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            sys.exit(f"FAIL {what}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"FAIL {what}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
        if not isinstance(got[m["name"]]["value"], (int, float)):
            sys.exit(f"FAIL {what}: {m['name']} value is not a number")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        sys.exit(f"FAIL {what}: metrics not in BENCHMARK.json: {sorted(extra)}")
    print(f"ok   {what}: {len(wanted)} metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        expect(run(w["name"], 0), bench["end_to_end"], f"{w['name']} untraced")
    expect(run(bench["workloads"][0]["name"], 1), bench["per_layer"], "traced run")
    print("smoke test passed")


if __name__ == "__main__":
    main()
