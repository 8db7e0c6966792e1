#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds ../src plus the elv_perfbench
binary into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("moons", "mnist-4-t2", "mnist-10-search")
# One run must end within 180 s; the slowest traced run takes about 50 s.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build elv_perfbench; return its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=False)
        if configure.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "elv_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=False)
    if compiled.returncode != 0:
        return None
    return os.path.join(build_dir, "elv_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--reference", os.path.join(HERE, "reference.txt"),
        "--trace-out",
        os.path.join(build_dir, "trace-%s.json" % args.workload),
    ]
    try:
        return subprocess.run(command, check=False,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
