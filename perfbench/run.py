#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload route_agg --seed 1 --seconds 5 --trace 0

Run from anywhere inside a checkout of the repository. The first run
configures and builds perfbench/ (and the ccam library it compiles from
src/) into .bench_build/ at the repository root; later runs only rebuild
what changed. The program's last stdout line is the result object; build
output and the benchmark's wall-clock report go to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("route_agg", "path_search", "update_mix", "serve_mix")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(root, ".bench_build")
    build = os.path.join(out, "perfbench")
    binary = os.path.join(build, "ccam_perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "ccam_perfbench",
                  "-j", jobs])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    scratch = os.path.join(out, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", scratch]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
