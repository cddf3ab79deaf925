#!/usr/bin/env python3
"""Builds the engine and the benchmark program from this checkout, then runs it.

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and result files to .bench_out; the last line of standard
output is the run's result JSON. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr.fileno()).returncode != 0:
            sys.exit("perfbench: build failed")
    return binary


def main():
    binary = build()
    args = sys.argv[1:]
    if "--selftest" in args:
        return subprocess.run([binary] + args).returncode
    args += ["--out", os.path.join(ROOT, ".bench_out")]
    runs = [args]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] == ["all"]:
        # Every workload BENCHMARK.json keeps, one process each.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        runs = [args[:at] + [name] + args[at + 1:] for name in names]
    status = 0
    for run in runs:
        sys.stdout.flush()
        status = max(status, subprocess.run([binary] + run).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
