#!/usr/bin/env python3
"""Builds and runs the HybridGNN end-to-end benchmark.

Run from the root of a source checkout:

    python3 e2e_bench/run.py --workload serve_live --seed 1 --seconds 20 --trace 0

Each call configures and builds the library and the runner in .bench_build/
(Release); only the first compiles everything, later calls rebuild what
changed. The runner's output is passed through unchanged: a human-readable
metric table, then one JSON line with "correct", "attempted", "failed" and
"metrics". Checkpoints and traces go to .bench_out/. Exit code is the runner's: 0 when every output
check passes, 1 when one fails, 2 on a usage or environment error. A failed
build exits 3 without printing a result.

--smoke runs a shrunken version of the workload (small graphs, one set-up)
for the benchmark's own tests; its numbers are not comparable to full runs.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")


def build():
    """Configures and builds the runner; False on any failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        try:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode:
                return False
        except OSError as err:  # e.g. cmake is not installed
            print("e2e_bench: %s: %s" % (cmd[0], err), file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not build():
        print("e2e_bench: build failed", file=sys.stderr)
        return 3
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if args.smoke:
        cmd += ["--smoke", "1"]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
