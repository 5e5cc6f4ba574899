#!/usr/bin/env python3
"""Numeric and backend flag validation of the command-line tools.

Usage: ppdriver_cli_test.py /path/to/ppdriver /path/to/ppserve

Every bad value must be a usage error (exit 2) — never a silent 0, a
wrapped unsigned value, or a crash (a negative --workers used to request
a 4294967295-wide pool and die with std::bad_alloc). Good values still
run.
"""
import subprocess
import sys

PPDRIVER, PPSERVE = sys.argv[1], sys.argv[2]


def run(argv, stdin=""):
    p = subprocess.run(argv, input=stdin.encode(), capture_output=True, timeout=120)
    return p.returncode, p.stdout.decode(), p.stderr.decode()


def check(cond, msg):
    if not cond:
        print("FAIL:", msg)
        sys.exit(1)
    print("ok:", msg)


BAD_DRIVER = [
    ["run", "lis/sequential", "--workers", "-1"],
    ["run", "lis/sequential", "--workers", "5000"],
    ["run", "lis/sequential", "--workers", "two"],
    ["run", "lis/sequential", "--n", "abc"],
    ["run", "lis/sequential", "--n", "0"],
    ["run", "lis/sequential", "--n", "12x"],
    ["run", "lis/sequential", "--seed", "-5"],
    ["run", "lis/sequential", "--seed", "99999999999999999999999"],
    ["run", "lis/sequential", "--grain", "-1"],
    ["run", "lis/sequential", "--relax-k", "0"],
    ["run", "lis/sequential", "--repeats", "0"],
    ["run", "lis/sequential", "--backend", "openmp"],
    ["run", "lis/sequential", "--backend", "omp"],
    ["batch", "lis/sequential", "--count", "-3"],
    ["batch", "lis/sequential", "--count", "many"],
    ["golden", "--n", "abc"],
    ["golden", "--seed", "-1"],
]
for args in BAD_DRIVER:
    rc, out, err = run([PPDRIVER] + args)
    check(rc == 2, f"ppdriver {' '.join(args)} exits 2 (got {rc}, stderr: {err.strip()!r})")

for flags in (["--backend", "openmp"], ["--workers-per-run", "5000"],
              ["--workers-per-run", "-1"], ["--seed", "-5"]):
    rc, out, err = run([PPSERVE] + flags)
    check(rc == 2, f"ppserve {' '.join(flags)} exits 2 (got {rc}, stderr: {err.strip()!r})")

rc, out, err = run([PPDRIVER, "run", "lis/sequential", "--n", "300", "--workers", "1",
                    "--seed", "5", "--backend", "sequential"])
check(rc == 0 and "seed = 5" in out and "backend  = sequential" in out,
      f"valid flags still run ({rc}, {err.strip()!r})")
rc, out, err = run([PPDRIVER, "batch", "lis/parallel", "--n", "300", "--count", "2",
                    "--workers", "2"])
check(rc == 0 and "workers = 2" in out, f"valid batch flags still run ({rc}, {err.strip()!r})")
print("all ppdriver/ppserve flag checks passed")
