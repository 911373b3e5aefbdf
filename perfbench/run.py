#!/usr/bin/env python3
"""Builds and runs the Libra host-time benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady-50n --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the
simulator libraries from src/) into .bench_build/; later calls rebuild only
what changed. The benchmark binary's output is passed through; its last line
is the JSON result. The exit code is the binary's, or 1 when the build fails.
"""

import fcntl
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "libra_perfbench")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # One build at a time when several runs start in the same checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "libra_perfbench", "-j", JOBS])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def main():
    if not build():
        return 1
    return subprocess.call([BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
