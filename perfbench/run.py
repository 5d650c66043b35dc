#!/usr/bin/env python3
"""Builds and runs the pod-allocator benchmark.

    python3 perfbench/run.py --workload <churn_mcas|kv_pod|tiered_hot_shift>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

Run from the repository root. The C++ package in this directory is
configured and built (incrementally) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; build output goes to stderr. The
benchmark's stdout is passed through: human-readable metric lines, then
one JSON object as the last line. A traced run (--trace 1) also writes its
spans to <build dir>/traces/<workload>-seed<n>.csv.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("churn_mcas", "kv_pod", "tiered_hot_shift")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures and builds the benchmark; returns the binary."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    args = p.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir,
                             f"{args.workload}-seed{args.seed}.csv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
