#!/usr/bin/env python3
"""End-to-end benchmark launcher.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the runner (and the library it links) from the checkout's
sources into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
when needed, then runs it with the arguments unchanged. Build output
goes to stderr; the runner's stdout is passed through, so the last line
of stdout is the result JSON. Exits non-zero without printing a result
when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "e2ebench"))
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "e2ebench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
