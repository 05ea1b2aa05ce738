#!/usr/bin/env python3
"""Builds and runs one workload of the causal-DSM benchmark.

Usage, from the root of the source tree:

    python3 perfbench/run.py --workload remote_rw --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the repository's library
sources plus the causal_bench program) into .bench_build/ with CMake; later
calls only rebuild what changed. causal_bench's standard output is passed
through; its last line is the JSON result. Exits non-zero when the source
tree is missing, the build fails or the benchmark reports a failed check.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("remote_rw", "cached_read", "solver_fig6", "wide_shard")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def run_quiet(cmd):
    """Runs a build step; shows its output only when it fails. Compiler
    temporaries go under the build directory, not the system temp dir."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True, check=False, env=env)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
    return res.returncode == 0


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", BUILD, "--parallel", jobs]):
        return None
    return os.path.join(BUILD, "causal_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("src", os.path.join("include", "causalmem")):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            return fail(f"{needed}/ not found next to perfbench/; "
                        "run from a full causalmem source tree")
    binary = build()
    if binary is None:
        return fail("build failed", 1)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        return fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)


if __name__ == "__main__":
    sys.exit(main())
