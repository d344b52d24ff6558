#!/usr/bin/env python3
"""Builds the benchmark program from source, then runs one workload.

    python3 perfbench/run.py --workload steady_1m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build tree is $CARGO_TARGET_DIR (default
.bench_build) and checkpoints go to .bench_out; both are git-ignored. Build
output goes to standard error, so the last line of standard output is the
program's JSON result. Exits non-zero when the build fails, the engine sources
are missing, or an operation or output check fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "session.h")):
        sys.stderr.write("perfbench: engine sources (src/) not found under %s\n" % ROOT)
        return None
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fi_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(out, "fi_perfbench")


def main():
    binary = build(build_dir())
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
