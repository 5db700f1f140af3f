#!/usr/bin/env python3
"""Edit-to-build benchmark: one run of one workload.

    python3 perfbench/run.py --workload edit_cli|daemon_storm|ci_cold \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the compiler libraries from
src/, the scbuildd and sccached daemons from tools/, and the benchmark
binary) under .bench_build/; later runs only check that it is up to date.
The benchmark binary then runs the workload and prints a human summary
followed, as the last line of stdout, by the JSON result. Build output
goes to stderr. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark package; returns the
    directory holding the three binaries."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                  "perfbench", "scbuildd", "sccached"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return CMAKE_DIR


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["edit_cli", "daemon_storm", "ci_cold"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    bindir = build()
    cmd = [os.path.join(bindir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scbuildd", os.path.join(bindir, "scbuildd"),
           "--sccached", os.path.join(bindir, "sccached"),
           "--work", os.path.join(BUILD, "work")]
    # Own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: benchmark exited with code %d" % proc.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        sys.exit("perfbench: benchmark printed no result")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
