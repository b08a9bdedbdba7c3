#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) into the directory
named by CARGO_TARGET_DIR, or .bench_build, under the checkout root, then
runs the program there. Build output goes to stderr, so the program's result
line stays the last line of stdout. Exits nonzero without a result line when
the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_quiet(cmd, timeout):
    """Runs a build step, sending its output to stderr; exits on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.exit("perfbench: failed (%d): %s" % (proc.returncode,
                                                 " ".join(cmd)))


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                         ".bench_build")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found under " + ROOT)
    run_quiet(["cmake", "-S", HERE, "-B", build,
               "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_quiet(["cmake", "--build", build, "-j4", "--target", "perfbench"],
              840)
    workdir = os.path.join(build, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build, "perfbench"), *sys.argv[1:],
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
