#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload solve_suite|serve_mix|session_churn|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library sources, ppserve and the ppbench driver) with CMake
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr. ppbench's output
follows on stdout; its last line is the result JSON. The exit code is
ppbench's: 0 only when every answer was correct. A failed build exits 2
without printing a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["solve_suite", "serve_mix", "session_churn", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: check that every path runs and reports")
    args = ap.parse_args()

    out = build_dir()
    try:
        ok = build(out)
    except OSError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        ok = False
    if not ok:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(out, "ppbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ppserve", os.path.join(out, "ppserve"), "--log-dir", out]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
