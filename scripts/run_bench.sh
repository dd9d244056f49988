#!/usr/bin/env bash
# Runs the micro_core benchmark suite and records BENCH_core.json at the
# repo root: the raw google-benchmark results plus the codec speedup ratios
# and transport counters the perf trajectory is tracked by (see
# bench/README.md).
#
#   scripts/run_bench.sh [--smoke] [--check] [build_dir]
#
# --smoke runs one short repetition (CI); default runs the full suite.
# --check fails (exit 1) when any speedup_vs_pre_refactor ratio in the
#         written BENCH_core.json is missing or below 2x, when a
#         transport_adaptive or routing value misses its floor or ceiling
#         (coalesced item fetch > 308 messages or != 192 fetched, standing
#         queue publish > 1399 messages or != 1270 stored, credit-paced
#         slow-owner join > 1918 peak in-flight bytes or != 400 results,
#         replica fetch > 19 routed hops or != 192 fetched, adaptive flush
#         mean ack latency > 45ms), or when the plan-execution search
#         path costs more than 121 messages or returns != 100 results,
#         or when a churn scenario misses its robustness floor
#         (sustained-churn recall < 980 permille, or a flash-crowd /
#         mass-leave run that fails to restore surviving key ranges to
#         full replication), or when a partition-tolerance floor breaks
#         (split-brain recall < 980 permille, an oracle-dirty healed ring,
#         merge machinery that never engaged, or a durable restart that
#         fails to re-ship >= 5x fewer re-sync bytes than the amnesia
#         baseline at identical answers), or when a query-robustness floor breaks
#         (crash-failover recall < 950 permille or past deadline, hedged
#         fail-slow p99 improvement < 1.5x or changed answers, unbounded
#         or unlabeled overload shedding), or when a BM_ShardScale_* sharded run's
#         fingerprint diverges from serial (always) or misses its speedup
#         floor (>= 2x at 4 shards, >= 2.5x at 8 — only on machines with
#         that many cores) — the CI bench-regression gate.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)

SMOKE=0
CHECK=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --check) CHECK=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

if [ ! -x "$BUILD_DIR/micro_core" ]; then
  echo "building micro_core in $BUILD_DIR..."
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target micro_core -j >/dev/null
fi

MIN_TIME=0.5
if [ "$SMOKE" = "1" ]; then MIN_TIME=0.01; fi

RAW=$(mktemp)
"$BUILD_DIR/micro_core" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json \
  --benchmark_out="$RAW" \
  --benchmark_out_format=json >/dev/null

python3 - "$RAW" "$REPO_ROOT/BENCH_core.json" <<'EOF'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

by_name = {}
for b in raw.get("benchmarks", []):
    by_name[b["name"]] = b

def items_per_sec(name):
    b = by_name.get(name)
    return b.get("items_per_second") if b else None

def counter(name, key):
    b = by_name.get(name)
    return b.get(key) if b else None

def ratio(new, old):
    a, b = items_per_sec(new), items_per_sec(old)
    return round(a / b, 2) if a and b else None

def counter_ratio(baseline, adaptive, key):
    a, b = counter(baseline, key), counter(adaptive, key)
    return round(a / b, 2) if a and b else None

# The one publish path, the one fetch path and the load-adaptive
# transport: deterministic counts, each gated by an absolute ceiling and an
# exact answer count below.
transport = {
    # Owner-coalesced fetch of a published 192-item answer set.
    "fetch_items_net_messages": counter(
        "BM_FetchItems_OwnerCoalesced", "net_messages"),
    "fetch_items_fetched": counter("BM_FetchItems_OwnerCoalesced", "fetched"),
    # Call-at-a-time publishes of 256 files through the standing queues.
    "publish_path_net_messages": counter(
        "BM_PublishPath_StandingQueues", "net_messages"),
    "publish_path_stored": counter("BM_PublishPath_StandingQueues", "stored"),
    # Routed hops answering the replicated 192-item key set.
    "replica_fetch_routed_hops": counter(
        "BM_ReplicaFetch_ReplicaAware", "routed_hops"),
    "replica_fetch_fetched": counter(
        "BM_ReplicaFetch_ReplicaAware", "fetched"),
    # Publish->ack latency when destinations are idle.
    "adaptive_flush_mean_ack_latency_ms": counter(
        "BM_AdaptiveFlush_PressureDriven", "mean_ack_latency_ms"),
    # Bounded peak in-flight bytes at a slow stage owner.
    "credit_peak_inflight_bytes": counter(
        "BM_CreditJoin_Credited", "peak_inflight_bytes"),
    "credit_join_results": counter("BM_CreditJoin_Credited", "results"),
}

# Declarative plan execution (PR 4): the compiled-plan search path's
# message cost and answer count (gated by an absolute ceiling below).
plan_exec = {
    "plan_chain_net_messages": counter(
        "BM_PlanExec_PlanCompiled", "net_messages"),
    "plan_chain_results": counter("BM_PlanExec_PlanCompiled", "results"),
    "plan": {k: counter("BM_PlanExec_PlanCompiled", k)
             for k in ("net_messages", "net_bytes", "results")},
}

# Load-balanced routing layer (PR 5): the owner location cache must
# collapse steady-state fetch/publish ring walks to ~one hop per routed
# message (counted "dht.route" messages, identical answer sets), and the
# congestion-aware finger choice must route a get burst around a buried
# node with a measurable latency win at identical answers.
routing = {
    "steady_state_hops": counter_ratio(
        "BM_Routing_SteadyStateClassic", "BM_Routing_SteadyStateCached",
        "routed_hops"),
    "steady_state_identical_results": (
        counter("BM_Routing_SteadyStateClassic", "fetched") ==
        counter("BM_Routing_SteadyStateCached", "fetched")),
    "steady_state_cache_hits": counter(
        "BM_Routing_SteadyStateCached", "route_cache_hits"),
    "hot_spot_latency": counter_ratio(
        "BM_Routing_HotSpotClassic", "BM_Routing_HotSpotDetour",
        "mean_get_latency_ms"),
    "hot_spot_detours": counter(
        "BM_Routing_HotSpotDetour", "congestion_detours"),
    "hot_spot_identical_results": (
        counter("BM_Routing_HotSpotClassic", "answered") ==
        counter("BM_Routing_HotSpotDetour", "answered")),
}

# Churn scenarios (PR 6): seed-deterministic recall and replication-floor
# restoration under scripted membership churn (sustained 1%/min, flash-crowd
# join, correlated mass-leave) — counted quantities, gated below.
churn = {
    "sustained_recall_permille": counter(
        "BM_Churn_SustainedRecall", "recall_permille"),
    "sustained_churn_events": (
        (counter("BM_Churn_SustainedRecall", "churn_crashes") or 0) +
        (counter("BM_Churn_SustainedRecall", "churn_joins") or 0)),
    "flash_crowd_full_replication": counter(
        "BM_Churn_FlashCrowdRepair", "full_replication"),
    "flash_crowd_resync_rounds": counter(
        "BM_Churn_FlashCrowdRepair", "resync_rounds"),
    "mass_leave_restored_permille": counter(
        "BM_Churn_MassLeaveRepair", "restored_permille"),
    "mass_leave_surviving_keys": counter(
        "BM_Churn_MassLeaveRepair", "surviving_keys"),
    "mass_leave_lost_keys": counter(
        "BM_Churn_MassLeaveRepair", "lost_keys"),
}

# Partition tolerance (PR 10): split-brain heal recall and oracle verdict,
# plus the durable-vs-amnesia restart byte ratio — counted quantities under
# fixed seeds, gated below.
def restart_ratio():
    durable = counter("BM_Partition_RestartRecovery", "resync_bytes")
    amnesia = counter("BM_Partition_AmnesiaBaseline", "resync_bytes")
    if amnesia is None or durable is None:
        return None
    if durable == 0:
        return float("inf") if amnesia > 0 else None
    return round(amnesia / durable, 2)

partition = {
    "split_brain_recall_permille": counter(
        "BM_Partition_SplitBrainHeal", "recall_permille"),
    "split_brain_oracle_clean": counter(
        "BM_Partition_SplitBrainHeal", "oracle_clean"),
    "split_brain_merge_probes": counter(
        "BM_Partition_SplitBrainHeal", "merge_probes"),
    "split_brain_merge_rounds": counter(
        "BM_Partition_SplitBrainHeal", "merge_rounds"),
    "split_brain_partition_heals": counter(
        "BM_Partition_SplitBrainHeal", "partition_heals"),
    "restart_resync_byte_ratio": restart_ratio(),
    "restart_durable_resync_bytes": counter(
        "BM_Partition_RestartRecovery", "resync_bytes"),
    "restart_amnesia_resync_bytes": counter(
        "BM_Partition_AmnesiaBaseline", "resync_bytes"),
    "restart_identical_answers": (
        counter("BM_Partition_RestartRecovery", "recall_permille") ==
        counter("BM_Partition_AmnesiaBaseline", "recall_permille")),
    "restart_recall_permille": counter(
        "BM_Partition_RestartRecovery", "recall_permille"),
}

# Fault-tolerant query plane (PR 8): counted/sim-clock robustness of the
# query path itself — crash-failover recall within the deadline, hedged
# fetch tail latency under a fail-slow owner at identical answers, and
# bounded labeled shedding with exact partial accounting. Gated below.
robustness = {
    "crash_recall_permille": counter(
        "BM_Robust_CrashFailoverRecall", "recall_permille"),
    "crash_failovers": counter("BM_Robust_CrashFailoverRecall", "failovers"),
    "crash_deadline_met": counter(
        "BM_Robust_CrashFailoverRecall", "deadline_met"),
    "hedge_p99_latency": counter_ratio(
        "BM_Robust_FetchFailSlowUnhedged", "BM_Robust_FetchFailSlowHedged",
        "p99_fetch_ms"),
    "hedge_identical_results": (
        counter("BM_Robust_FetchFailSlowUnhedged", "fetched") ==
        counter("BM_Robust_FetchFailSlowHedged", "fetched")),
    "hedges_won": counter("BM_Robust_FetchFailSlowHedged", "hedges_won"),
    "admission_idle_admitted": counter(
        "BM_Robust_AdmissionOverload", "idle_admitted"),
    "admission_shed_labeled": counter(
        "BM_Robust_AdmissionOverload", "shed_labeled"),
    "admission_shed_bounded": counter(
        "BM_Robust_AdmissionOverload", "shed_bounded"),
    "admission_partials_match": counter(
        "BM_Robust_AdmissionOverload", "partials_match"),
}

# Shard-parallel runtime (PR 7): wall-clock scaling of the sharded event
# loop over a big static deployment. The fingerprint (events, clock,
# messages, bytes, delivered routes, hops — folded to 50 bits so it rides
# a json double exactly) must be identical across backends: the sharded
# loop may only be faster than serial, never different.
def shard_scale_section():
    out = {}
    for b in raw.get("benchmarks", []):
        name = b["name"]
        if not name.startswith("BM_ShardScale_Serial/"):
            continue
        # "<size>" or "<size>/real_time" (wall-clock items_per_second).
        suffix = name.split("/", 1)[1]
        size = suffix.split("/", 1)[0]
        serial = b
        entry = {"serial_ms": round(serial.get("real_time") or 0.0, 1)}
        for label in ("shards4", "shards8"):
            sb = by_name.get("BM_ShardScale_Shards%s/%s" %
                             (label[-1], suffix))
            if not sb:
                continue
            entry[label + "_ms"] = round(sb.get("real_time") or 0.0, 1)
            if sb.get("real_time"):
                entry["speedup_" + label] = round(
                    serial["real_time"] / sb["real_time"], 2)
            entry[label + "_fingerprint_identical"] = (
                sb.get("fingerprint") == serial.get("fingerprint") and
                sb.get("events") == serial.get("events"))
        out[size] = entry
    return out

shard_scale = shard_scale_section()

ratios = {
    "shj_insert_with_matches": ratio(
        "BM_ShjInsertWithMatches_SharedPayload/4096",
        "BM_ShjInsertWithMatches_Legacy/4096"),
    "tuple_deserialize_batch": ratio(
        "BM_TupleDeserialize_Batch/512",
        "BM_TupleDeserialize_PerTuple/512"),
    "tuple_serialize_batch": ratio(
        "BM_TupleSerialize_Batch/512",
        "BM_TupleSerialize_PerTuple/512"),
}

out = {
    "context": raw.get("context", {}),
    "speedup_vs_pre_refactor": ratios,
    "transport_adaptive": transport,
    "routing": routing,
    "plan_exec": plan_exec,
    "churn": churn,
    "partition_tolerance": partition,
    "query_robustness": robustness,
    "shard_scale": shard_scale,
    "benchmarks": raw.get("benchmarks", []),
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)

print("BENCH_core.json written:")
print("  speedups vs pre-refactor per-tuple path:", ratios)
print("  adaptive transport:", transport)
print("  routing ratios:", routing)
print("  plan-exec cost:", {k: plan_exec[k] for k in
                           ("plan_chain_net_messages",
                            "plan_chain_results")})
print("  churn scenarios:", churn)
print("  partition tolerance:", partition)
print("  query robustness:", robustness)
print("  shard scale:", shard_scale)
EOF

rm -f "$RAW"

if [ "$CHECK" = "1" ]; then
  python3 - "$REPO_ROOT/BENCH_core.json" <<'EOF'
import json, sys

# Bench-regression gate: every tracked speedup ratio must exist and stay
# at or above 2x the pre-refactor codec, and the transport values must
# hold their own ceilings and answer counts.
with open(sys.argv[1]) as f:
    bench = json.load(f)

failed = []
for name, value in sorted(bench.get("speedup_vs_pre_refactor", {}).items()):
    if value is None:
        failed.append("%s: missing (bench did not run?)" % name)
    elif value < 2.0:
        failed.append("%s: %.2fx < 2x" % (name, value))

# Transport (counted / sim-clock quantities, deterministic under the fixed
# seeds). Every ceiling is a frozen baseline divided by its former ratio
# floor: 616 per-key fetch messages / 2x, 2798 per-tuple publish messages /
# 2x, 7672 unpaced peak bytes / 4x, 25 K-owner hops / 1.3x and 82ms
# fixed-bound ack latency / 1.8x (observed: 32 messages, 1236 messages,
# 352 bytes, 14 hops, 32ms).
transport = bench.get("transport_adaptive", {})
transport_ceilings = {
    "fetch_items_net_messages": 308,
    "publish_path_net_messages": 1399,
    "credit_peak_inflight_bytes": 1918,
    "replica_fetch_routed_hops": 19,
    "adaptive_flush_mean_ack_latency_ms": 45,
}
for name, ceiling in sorted(transport_ceilings.items()):
    value = transport.get(name)
    if value is None:
        failed.append("%s: missing (bench did not run?)" % name)
    elif value > ceiling:
        failed.append("%s: %s > %s" % (name, value, ceiling))
transport_answers = {
    "fetch_items_fetched": 192,
    "publish_path_stored": 1270,
    "credit_join_results": 400,
    "replica_fetch_fetched": 192,
}
for name, want in sorted(transport_answers.items()):
    if transport.get(name) != want:
        failed.append("%s: %s != %s (the answer set changed)" %
                      (name, transport.get(name), want))

# Routing-layer floors (counted hops / sim-clock latency, deterministic
# under the fixed seeds; floors carry margin under the observed values:
# steady-state hops ~2.8x, hot-spot latency ~2.6x).
routing = bench.get("routing", {})
routing_floors = {
    "steady_state_hops": 2.0,
    "hot_spot_latency": 1.5,
}
for name, floor in sorted(routing_floors.items()):
    value = routing.get(name)
    if value is None:
        failed.append("%s: missing (bench did not run?)" % name)
    elif value < floor:
        failed.append("%s: %.2fx < %sx" % (name, value, floor))
if not routing.get("hot_spot_detours"):
    failed.append("hot_spot_detours: congestion-aware run took no detours")
for name in ("steady_state_identical_results",
             "hot_spot_identical_results"):
    if routing.get(name) is not True:
        failed.append("%s: routing variant changed the answer set" % name)

# Plan-execution cost gate: the declarative search path may not cost more
# than the frozen hardwired-join baseline (109 messages) divided by the
# former 0.9x parity floor, and must return all 100 results.
plan_exec = bench.get("plan_exec", {})
messages = plan_exec.get("plan_chain_net_messages")
if messages is None:
    failed.append("plan_chain_net_messages: missing (bench did not run?)")
elif messages > 121:
    failed.append("plan_chain_net_messages: %s > 121" % messages)
if plan_exec.get("plan_chain_results") != 100:
    failed.append("plan_chain_results: %s != 100 (plan path changed the "
                  "answer set)" % plan_exec.get("plan_chain_results"))

# Churn-robustness gates: sustained 1%/min churn at replication 3 keeps
# recall within epsilon (>= 980 permille); a 10% flash-crowd join and a
# correlated mass-leave both restore every surviving key range to the
# replication floor within the bounded repair window. All quantities are
# counted under fixed seeds, so these are exact, not statistical.
churn = bench.get("churn", {})

recall = churn.get("sustained_recall_permille")
if recall is None:
    failed.append("sustained_recall_permille: missing (bench did not run?)")
elif recall < 980:
    failed.append("sustained_recall_permille: %d < 980" % recall)

if churn.get("flash_crowd_full_replication") != 1:
    failed.append("flash_crowd_full_replication: a key range stayed below "
                  "the replication floor after the join wave")
rounds = churn.get("flash_crowd_resync_rounds")
if not rounds:
    failed.append("flash_crowd_resync_rounds: no re-sync rounds ran")

restored = churn.get("mass_leave_restored_permille")
if restored is None:
    failed.append("mass_leave_restored_permille: missing (bench did not "
                  "run?)")
elif restored != 1000:
    failed.append("mass_leave_restored_permille: %d != 1000 (surviving "
                  "ranges not restored to full replication)" % restored)
if not churn.get("mass_leave_surviving_keys"):
    failed.append("mass_leave_surviving_keys: correlated crash wiped every "
                  "key (scenario invalid)")

# Partition-tolerance gates: a healed split brain must answer >= 98% of
# the pre-split key set from the minority side AND leave a RingOracle-clean
# ring with the merge machinery demonstrably engaged (probes, rounds,
# heals all nonzero); a durable restart must re-ship >= 5x fewer re-sync
# bytes than the amnesia baseline of the identical scenario, at identical
# final answers. Counted quantities under fixed seeds.
partition = bench.get("partition_tolerance", {})

recall = partition.get("split_brain_recall_permille")
if recall is None:
    failed.append("split_brain_recall_permille: missing (bench did not "
                  "run?)")
elif recall < 980:
    failed.append("split_brain_recall_permille: %d < 980" % recall)
if partition.get("split_brain_oracle_clean") != 1:
    failed.append("split_brain_oracle_clean: the healed ring violated a "
                  "RingOracle invariant")
for name in ("split_brain_merge_probes", "split_brain_merge_rounds",
             "split_brain_partition_heals"):
    if not partition.get(name):
        failed.append("%s: the ring merge machinery never engaged" % name)

ratio = partition.get("restart_resync_byte_ratio")
if ratio is None:
    failed.append("restart_resync_byte_ratio: missing (bench did not run?)")
elif ratio < 5.0:
    failed.append("restart_resync_byte_ratio: %.2fx < 5x (durable restart "
                  "re-shipped too many bytes)" % ratio)
if partition.get("restart_identical_answers") is not True:
    failed.append("restart_identical_answers: durable and amnesia restarts "
                  "answered differently")
recall = partition.get("restart_recall_permille")
if recall is None or recall < 1000:
    failed.append("restart_recall_permille: %s < 1000 (restart lost data)"
                  % recall)

# Query-robustness gates (fault-tolerant query plane): crash-failover
# recall >= 95% within the deadline with at least one failover exercised;
# hedging must cut the fail-slow p99 by >= 1.5x at identical answers; and
# overload shedding must be bounded, labeled, and counted exactly once in
# pier.partial_results. Counted / sim-clock quantities under fixed seeds
# (observed: recall 1000 permille, hedge ratio ~4.6x).
robust = bench.get("query_robustness", {})

recall = robust.get("crash_recall_permille")
if recall is None:
    failed.append("crash_recall_permille: missing (bench did not run?)")
elif recall < 950:
    failed.append("crash_recall_permille: %d < 950" % recall)
if not robust.get("crash_failovers"):
    failed.append("crash_failovers: no stage failover exercised")
if robust.get("crash_deadline_met") != 1:
    failed.append("crash_deadline_met: a crash-failover query missed its "
                  "deadline")

hedge = robust.get("hedge_p99_latency")
if hedge is None:
    failed.append("hedge_p99_latency: missing (bench did not run?)")
elif hedge < 1.5:
    failed.append("hedge_p99_latency: %.2fx < 1.5x" % hedge)
if robust.get("hedge_identical_results") is not True:
    failed.append("hedge_identical_results: hedging changed the answer set")
if not robust.get("hedges_won"):
    failed.append("hedges_won: no hedge beat the fail-slow primary")

for name in ("admission_idle_admitted", "admission_shed_labeled",
             "admission_shed_bounded", "admission_partials_match"):
    if robust.get(name) != 1:
        failed.append("%s: admission-control contract violated" % name)

# Shard-parallel scaling gates: fingerprint identity is unconditional —
# a sharded backend may only be FASTER than serial, never different. The
# wall-clock floors (>= 2x at 4 shards, >= 2.5x at 8) only apply when the
# machine has the cores to parallelize on (context.num_cpus); a 1-core CI
# runner still proves determinism, just not scaling.
shard_scale = bench.get("shard_scale", {})
num_cpus = bench.get("context", {}).get("num_cpus") or 0
if not shard_scale:
    failed.append("shard_scale: missing (bench did not run?)")
for size, entry in sorted(shard_scale.items()):
    for label, shards, floor in (("shards4", 4, 2.0), ("shards8", 8, 2.5)):
        identical = entry.get(label + "_fingerprint_identical")
        if identical is None:
            failed.append("shard_scale[%s].%s: missing (bench did not "
                          "run?)" % (size, label))
        elif identical is not True:
            failed.append("shard_scale[%s].%s: fingerprint diverged from "
                          "the serial backend" % (size, label))
        if num_cpus < shards:
            continue
        speedup = entry.get("speedup_" + label)
        if speedup is None:
            failed.append("shard_scale[%s].speedup_%s: missing" %
                          (size, label))
        elif speedup < floor:
            failed.append("shard_scale[%s].speedup_%s: %.2fx < %sx" %
                          (size, label, speedup, floor))

if failed:
    print("bench-regression gate FAILED:")
    for line in failed:
        print("  " + line)
    sys.exit(1)
print("bench-regression gate passed: speedups >= 2x, transport and "
      "routing values within their floors and ceilings, plan-exec "
      "messages <= 121, unchanged answer sets, churn recall/repair "
      "floors held, partition-tolerance floors held (split-brain recall + oracle-clean merge, durable "
      "restart >= 5x fewer resync bytes), query-robustness "
      "floors held (crash recall, hedge p99, bounded labeled shedding), "
      "shard-scale fingerprints identical%s" %
      ("" if num_cpus >= 4 else " (speedup floors skipped: %d cpus)"
       % num_cpus))
EOF
fi
