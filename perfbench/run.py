#!/usr/bin/env python3
"""Builds and runs the discovery benchmark (see README.md in this directory).

Usage, from the repository root:

    python3 perfbench/run.py --workload point|range|hotspot \
        --seed N --seconds S --trace 0|1

The benchmark is compiled from this checkout's sources into .bench_build/
(the first run builds; later runs only re-check it). Build output goes to
stderr; the benchmark's last stdout line is its JSON result. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("point", "range", "hotspot")
MAX_SECONDS = 60


def run_timeout(seconds):
    """A run takes about --seconds plus a few seconds of self-test; allow
    twice that and a fixed margin before declaring it hung (160 s at 30 s)."""
    return 100 + 2 * seconds


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    source = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "discovery_bench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "discovery_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds within 1..{MAX_SECONDS}")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    state = os.path.join(root, ".bench_build", "perfbench-state")
    os.makedirs(state, exist_ok=True)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--digest-dir", os.path.join(state, "digests"),
        "--span-file", os.path.join(state, f"spans-{args.workload}.jsonl"),
    ]
    timeout = run_timeout(args.seconds)
    try:
        return subprocess.run(command, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
