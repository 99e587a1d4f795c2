#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload qasm_rand16 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
simulator libraries and `svbench` into .bench_build/perfbench (Release,
-march=native, as the top-level build); later calls only rebuild what
changed. Build output goes to stderr, so the last stdout line is the
program's JSON result. With --trace 1 the spans are also written as a
Chrome trace to .bench_build/traces/<workload>-seed<n>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "svbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "svbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
