#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload and seed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search_join --seed 1 \
        --seconds 26 --trace 0

The first run configures and builds perfbench/ (the repository's libraries
plus the driver, Release) into .bench_build/; later runs reuse the build.
The driver repeats the seeded workload for --seconds, checks every answer
against ground truth and the run's determinism, and reports its metrics.
This script stamps the run's context (git SHA, build, nproc, load average
at start and end, and whether the host was noisy), then prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each with the unit BENCHMARK.json gives it.
A traced run also writes a Chrome trace and a span summary into
.bench_build/traces/. The exit code is the driver's: non-zero on a wrong
answer, a determinism failure, or a failed build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = [["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"]]
    else:
        steps = []
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench_driver")


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("perfbench: unknown workload " + args.workload)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(os.path.abspath(build_dir))
    if driver is None:
        return 3

    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    trace_dir = os.path.abspath(os.path.join(build_dir, "traces"))
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 4
    load_end = os.getloadavg()[0]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("\n".join(lines))
        log("perfbench: driver failed with exit code %d" % proc.returncode)
        return 4
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None and not args.trace:
            log("perfbench: driver did not report " + m["name"])
            return 4
        # A traced workload leaves out the layers it does not exercise.
        metrics[m["name"]] = {"value": value or 0, "unit": m["unit"]}
    context = {
        "git_sha": git_sha(),
        "nproc": nproc,
        "load_start": load_start,
        "load_end": load_end,
        "noisy": max(load_start, load_end) > nproc,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    print("context: " + json.dumps(context))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
