#!/usr/bin/env python3
"""Builds the Dema benchmark from this checkout and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds `perfbench/` (which compiles the
libraries in `src/`) into `.bench_build/`; later calls only rebuild what
changed. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Traced runs write their spans to
`.bench_traces/`.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")
BINARY = os.path.join(BUILD_DIR, "dema_perfbench")
# Beyond the timed region a run needs input generation, set-up and checks;
# a run that takes this much longer than --seconds is hung.
RUN_SLACK_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Dema sources at {os.path.join(ROOT, 'src')}; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "dema_perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def run_timeout(argv):
    """--seconds plus RUN_SLACK_S (the binary itself rejects a bad value)."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds" and value.isdigit():
            return int(value) + RUN_SLACK_S
    return RUN_SLACK_S


def main():
    build()
    cmd = [BINARY] + sys.argv[1:] + ["--trace-dir", TRACE_DIR]
    timeout = run_timeout(sys.argv[1:])
    try:
        proc = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout}s and was killed")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
