#!/usr/bin/env python3
"""Builds the benchmark (library, discoverd, perfbench) and runs one workload.

Run from the root of a multiclust checkout:

    python3 perfbench/run.py --workload autok_deckm_8k --seed 1 \
        --seconds 45 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, and is
incremental after the first run. Build output goes to stderr; perfbench's
last stdout line is the result JSON (see README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench",
         "discoverd"],
        stdout=sys.stderr, check=True)


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    args = [binary, "--bin-dir", build_dir,
            "--expected", os.path.join(HERE, "expected.tsv")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
