#!/usr/bin/env python3
"""A/B-compares two commits on one perfbench workload.

    scripts/ab_perfbench.py --base <rev> [--change <rev>] \\
        --workload hybrid_flood --pairs 5 [--seed 1]
    scripts/ab_perfbench.py --base <rev> [--change <rev>] \\
        --workload hybrid_flood --traced [--seed 1]

Exports both revisions with `git archive` into their own temporary
directories (no network), then runs `perfbench/run.py --trace 0` in each
tree --pairs times for BENCHMARK.json's run_seconds, alternating which tree
goes first. Each tree builds into its own .bench_build/ on its first run.
For every end-to-end metric of BENCHMARK.json it prints the base and
change medians, the change/base ratio, how many pairs the change won (in
the metric's "better" direction), the spread of the base runs
(interquartile range) and the metric's bound.

Exits non-zero if any run fails or reports an incorrect answer, if the
trees differ in `failed`, or if any simulated-clock metric differs between
them — those are seeded results, not timings, and must match exactly.

--traced replaces the timed pairs with one 1 s `--trace 1` run per tree
(TRACED_SECONDS; perfbench still does at least three reps) and compares
every per-layer metric of BENCHMARK.json. Wall-clock metrics
(units s, us and ns/tuple, plus sim.run_share and shard.parallel_eff) are
printed but exempt. On a workload that perfbench runs on more than one
shard (dht_churn_sharded), so are the two high-water marks sim.pending_max
and net.inflight_peak_bytes: the sharded backend samples them while its
workers run, so they move with the thread schedule (three traced runs of
one tree read net.inflight_peak_bytes 1272, 1272 and 1259). On the serial
workloads the peaks come from the seeded simulation and are compared.
Every other metric (sim.events, net.tag.*, dht.hops_per_route,
trace.spans, ...) is a count or ratio of the seeded simulation and must
match exactly. Exits non-zero on any difference or a failed run:
"simulated behaviour unchanged" as one command.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics measured on the simulated clock: deterministic for a seed.
SIM_METRICS = ("query_p50_ms", "query_p99_ms", "recall", "bytes_per_query",
               "bytes_per_publish")

# Per-layer metrics read off the wall clock; --traced does not compare them.
WALL_UNITS = ("s", "us", "ns/tuple")
WALL_METRICS = ("sim.run_share", "shard.parallel_eff")
# Peaks that follow the thread schedule on the sharded backend; --traced
# prints them but does not compare them on the workloads perfbench runs
# sharded (perfbench/main.cc picks the shard count by workload name).
SCHEDULE_PEAKS = ("sim.pending_max", "net.inflight_peak_bytes")
SHARDED_WORKLOADS = ("dht_churn_sharded",)
# Length of a traced run: only its counts are compared, so short is enough.
TRACED_SECONDS = 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export(rev, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", REPO, "archive", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)


def run_once(tree, args, seconds, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    # run.py builds into $CARGO_TARGET_DIR when it is set; pin it to the
    # tree so the two trees never share a build.
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--change", default="HEAD", help="revision under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int,
                    help="timed pairs to run (required without --traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true",
                    help="compare one --trace 1 run per tree instead")
    args = ap.parse_args()
    if not args.traced and not args.pairs:
        ap.error("--pairs is required unless --traced is given")

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)

    workdir = tempfile.mkdtemp(prefix="ab_perfbench.")
    trees = {"base": os.path.join(workdir, "base"),
             "change": os.path.join(workdir, "change")}
    try:
        for side, rev in (("base", args.base), ("change", args.change)):
            log("ab: exporting %s (%s) to %s" % (side, rev, trees[side]))
            export(rev, trees[side])
        if args.traced:
            return compare_traced(args, spec["per_layer"], trees)
        return compare(args, spec["end_to_end"], spec["run_seconds"], trees)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def compare(args, metrics, seconds, trees):
    runs = {"base": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            rc, result = run_once(trees[side], args, seconds)
            if rc != 0 or result is None or not result.get("correct"):
                log("ab: pair %d: %s run failed (exit %d)" % (i + 1, side, rc))
                ok = False
                if result is None:
                    return 1
            runs[side].append(result)
            log("ab: pair %d %-6s failed=%s %s" % (
                i + 1, side, result["failed"],
                " ".join("%s=%.6g" % (m["name"],
                                      result["metrics"][m["name"]]["value"])
                         for m in metrics)))

    def values(side, name):
        return [r["metrics"][name]["value"] for r in runs[side]]

    print("workload %s, seed %d, %d pairs, %g s per run" %
          (args.workload, args.seed, args.pairs, seconds))
    header = "%-20s %-10s %14s %14s %7s %6s %10s %6s" % (
        "metric", "unit", "base median", "change median", "ratio", "wins",
        "base IQR", "bound")
    print(header)
    print("-" * len(header))
    for m in metrics:
        name = m["name"]
        base, change = values("base", name), values("change", name)
        lower = m["better"] == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b_med, c_med = statistics.median(base), statistics.median(change)
        ratio = c_med / b_med if b_med else float("nan")
        print("%-20s %-10s %14.6g %14.6g %7.3f %3d/%-2d %10.4g %6.2f" % (
            name, m["unit"], b_med, c_med, ratio, wins, args.pairs,
            quartile_spread(base), m["bound"]))
        if name in SIM_METRICS and set(base + change) != {base[0]}:
            log("ab: simulated metric %s differs: base %s, change %s" %
                (name, base, change))
            ok = False

    failed = {side: [r["failed"] for r in runs[side]] for side in runs}
    print("failed: base %s, change %s" % (failed["base"], failed["change"]))
    if set(failed["base"] + failed["change"]) != {failed["base"][0]}:
        log("ab: failed counts differ between runs")
        ok = False
    return 0 if ok else 1


def compare_traced(args, metrics, trees):
    results = {}
    for side in ("base", "change"):
        rc, result = run_once(trees[side], args, TRACED_SECONDS, trace=1)
        if rc != 0 or result is None or not result.get("correct"):
            log("ab: traced %s run failed (exit %d)" % (side, rc))
            return 1
        results[side] = result

    print("workload %s, seed %d, one traced run per tree, %g s" %
          (args.workload, args.seed, TRACED_SECONDS))
    peaks_vary = args.workload in SHARDED_WORKLOADS
    header = "%-34s %-10s %16s %16s  %s" % ("metric", "unit", "base",
                                            "change", "check")
    print(header)
    print("-" * len(header))
    differ = []
    for m in metrics:
        name = m["name"]
        base = results["base"]["metrics"][name]["value"]
        change = results["change"]["metrics"][name]["value"]
        if m["unit"] in WALL_UNITS or name in WALL_METRICS:
            check = "wall clock"
        elif peaks_vary and name in SCHEDULE_PEAKS:
            check = "peak, not compared"
        elif base == change:
            check = "same"
        else:
            check = "DIFFERS"
            differ.append(name)
        print("%-34s %-10s %16.10g %16.10g  %s" % (name, m["unit"], base,
                                                   change, check))
    failed = [results[side]["failed"] for side in ("base", "change")]
    print("failed: base %d, change %d" % tuple(failed))
    if failed[0] != failed[1]:
        differ.append("failed")
    if differ:
        log("ab: deterministic metrics differ: " + ", ".join(differ))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
