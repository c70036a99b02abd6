#!/usr/bin/env python3
"""Build the ALT-Index benchmark from source and run one workload.

    python3 perfbench/run.py --workload lookup|mixed|serve --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds an
optimised (Release) tree in $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "alt_perfbench", "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "alt_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["lookup", "mixed", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
