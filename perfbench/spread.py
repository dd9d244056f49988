#!/usr/bin/env python3
"""Measures the seed-to-seed spread of the benchmark's metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads search_join,dht_churn --seeds 10

Runs perfbench/run.py once per seed (1..N, or --first-seed onward) on each
workload, prints each run's metrics, and then, per metric, the median and
the interquartile range as
a share of the median — the figure BENCHMARK.json's bounds must cover —
next to the metric's bound. Exits non-zero if any run failed or reported
an incorrect answer.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - start
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            try:
                result = json.loads(last[0])
            except json.JSONDecodeError:
                result = {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d: FAILED (exit %d)" %
                      (workload, seed, proc.returncode))
                ok = False
                continue
            print("%s seed %d: ok, %.1f s %s" % (
                workload, seed, elapsed,
                json.dumps({k: m["value"]
                            for k, m in result["metrics"].items()})))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d seeds)" % (workload, args.seeds))
        for name, v in sorted(values.items()):
            med = statistics.median(v)
            if len(v) >= 2 and med:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3" if name != "setup_s" else ""
            print("  %-32s median %-14.6g spread %6.3f bound %s%s" %
                  (name, med, spread, bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
