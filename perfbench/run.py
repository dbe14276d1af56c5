#!/usr/bin/env python3
"""Build and run the locpriv benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload audit-ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later calls rebuild incrementally.
The workload binary prints human-readable lines and, as its last line, one
JSON object with the run's correctness verdict and metrics. This wrapper
passes that output through, checks the metric names against
BENCHMARK.json, and exits with the binary's status (non-zero on any
correctness failure).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at %s; run from a full checkout" % os.path.join(ROOT, "src"))
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as spec_file:
        spec = json.load(spec_file)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT,
        "--digests", os.path.join(HERE, "digests.tsv"),
    ]
    # Own process group, so a timeout also takes down the service's shards.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 124
    lines = stdout.rstrip("\n").split("\n")
    if child.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        log("workload exited %d without a result" % child.returncode)
        return child.returncode or 2
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("metrics %s do not match BENCHMARK.json %s"
            % (sorted(result["metrics"]), sorted(expected)))
        return 3
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own self-tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT).returncode
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
