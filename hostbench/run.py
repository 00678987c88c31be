#!/usr/bin/env python3
"""Builds the host-speed benchmark from source and runs it.

  python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 hostbench/run.py --record-reference
  python3 hostbench/run.py --selftest

Run from the root of a checkout. The benchmark package (hostbench/) compiles
the simulator's sources (src/) into .bench_build/hostbench, then this script
runs the `hostbench` binary with the arguments given, adding the reference
digests shipped in hostbench/reference.txt. A traced run (--trace 1) leaves
its spans in .bench_build/hostbench/spans.jsonl. The binary's standard output
is passed through; its last line is the JSON result. The exit status is the
binary's, or 1 when the build fails.

--record-reference rewrites hostbench/reference.txt (seeds 0-99).
--selftest builds and runs the benchmark's own tests (hostbench/tests/).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
REFERENCE = os.path.join(HERE, "reference.txt")


def build(target):
    """Configures once and builds `target`; compiler output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("hostbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    if argv == ["--selftest"]:
        if not build("hostbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "hostbench_selftest")], cwd=ROOT).returncode
    if not build("hostbench"):
        return 1
    binary = os.path.join(BUILD, "hostbench")
    if "--record-reference" in argv:
        with open(REFERENCE + ".tmp", "w") as out:
            code = subprocess.run([binary] + argv, stdout=out, cwd=ROOT).returncode
        if code == 0:
            os.replace(REFERENCE + ".tmp", REFERENCE)
        return code
    extra = ["--reference", REFERENCE, "--spans-out", os.path.join(BUILD, "spans.jsonl")]
    return subprocess.run([binary] + argv + extra, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
