#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one benchmark run.

Usage (from the repository root):

    python3 perfbench/run.py --workload <tpcc|ycsb_read|ycsb_update> \
        --seed <n> --seconds <s> --trace <0|1>

The engine library and the driver are built with CMake into .bench_build/
(the first run builds; later runs only check that the build is current).
Build output goes to stderr; the driver's stdout passes through unchanged,
so its last line is the JSON result. Traced runs write their self-time
table and chrome trace into .bench_build/perfbench-out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + ["--out-dir", OUT]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
