#!/usr/bin/env python3
"""dynkge repository benchmark.

Builds the kgebench program (this directory's CMake project, which compiles
the dynkge libraries from ../src) and runs one workload, or all of them:

    python3 kgebench/run.py --workload train_dense --seed 7 --seconds 20 --trace 0
    python3 kgebench/run.py                      # every workload, untraced

The build goes to $CARGO_TARGET_DIR/kgebench (default .bench_build/kgebench)
under the current directory; run it from the repository root. The metrics
a run reports are the end_to_end (untraced) or per_layer (traced) list of
BENCHMARK.json. With one workload, the last line of standard output is the
JSON result. The exit status is 0 when every output check passed, 1 when one
failed, and 2 when the benchmark could not run (nothing is printed as a
result then).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_dense", "train_combined", "serve_churn")
# A run measures --seconds twice when traced, plus set-up and checks.
RUN_TIMEOUT_S = 175


def fail(message):
    print("kgebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the dynkge sources (src/) are not next to kgebench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_dir), "kgebench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "kgebench",
                  "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir


def run_workload(build_dir, args, workload):
    workdir = os.path.join(build_dir, "work-%s-%d" % (workload, os.getpid()))
    command = [os.path.join(build_dir, "kgebench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir,
               "--spec", os.path.join(ROOT, "BENCHMARK.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode not in (0, 1):
        fail("%s exited with status %d" % (workload, done.returncode))
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build_dir = build()
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        status = max(status, run_workload(build_dir, args, workload))
    sys.exit(status)


if __name__ == "__main__":
    main()
