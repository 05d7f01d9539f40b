#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its metrics.

    python3 perfbench/run.py --workload fig1|selective|served \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt]

Run it from the repository root. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles the library
from src/ in Release mode) into $CARGO_TARGET_DIR when that is set, else
.bench_build; later runs only re-check the build. Build output goes to
stderr. The binary's records go to stdout, and the last line is the
result object {"correct", "attempted", "failed", "metrics"}. The exit code
is the binary's: 0 when every result matched its reference, non-zero
otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to " + BENCH_DIR)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "iceberg_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "iceberg_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig1", "selective", "served"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (self-test scale)")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb one result to exercise the gate")
    args = parser.parse_args()

    started = time.monotonic()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--digests", os.path.join(BENCH_DIR, "digests.txt")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(10.0, TIME_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded the time limit", 3)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("benchmark exited with code %d and no result" % proc.returncode,
             proc.returncode or 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
