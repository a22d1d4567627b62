#!/usr/bin/env python3
"""Builds and runs Rainbow's end-to-end benchmark.

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload classroom --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark compiles the library from src/ together with the driver in
perfbench/src/ (CMake, Release) into .bench_build/perfbench/, then runs
the driver with the same arguments. Build output goes to stderr, so the
last line of stdout is the driver's JSON result. Exits non-zero, without
a result, if the sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        sys.stderr.write("perfbench: no Rainbow sources under %s/src\n" % ROOT)
        return None
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return binary


def main():
    binary = build()
    if binary is None:
        return 1
    sys.stdout.flush()
    done = subprocess.run([binary, "--root", ROOT] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
