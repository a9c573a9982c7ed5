#!/usr/bin/env python3
"""Builds and runs the Rose benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles Rose's libraries from src/) into .bench_build
at the repository root, then runs one workload. The last line of standard
output is the benchmark's JSON result; build output goes to standard error.
Exits non-zero without a result when the sources are missing, the build
fails, or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rose_bench")
WORKLOADS = ("catalogue", "serve_hits", "serve_cold", "cluster_hits")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("Rose sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "rose_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    spans_dir = os.path.join(BUILD, "spans")
    tmp_dir = os.path.join(BUILD, "tmp")
    os.makedirs(spans_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp-dir", tmp_dir]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail("benchmark exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no JSON result")
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(result["metrics"]), expected))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
