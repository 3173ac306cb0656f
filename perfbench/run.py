#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload dashboard_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the checkout's library sources. It is built, Release, under
$CARGO_TARGET_DIR (default .bench_build) at the checkout root; build
output goes to standard error. The benchmark binary prints the result: the
last line of standard output is one JSON object. Traced runs (--trace 1)
also write their spans to spans/<workload>_seed<seed>.tsv in the build
directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    binary = os.path.join(bdir, "perfbench")
    return binary if os.path.exists(binary) else None


def run(cmd):
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["dashboard_warm", "adhoc_churn", "cluster_tcp"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at small scale and check the benchmark itself")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2
    if args.self_check:
        return run([binary, "--self-check", "--seed", str(args.seed)])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(bdir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s_seed%d.tsv" % (args.workload, args.seed))]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
