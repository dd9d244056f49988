// Backend equivalence: the same seeded scenario — the PR-6 churn harness
// and a warm owner-coalesced FetchMany workload — must produce
// fingerprint-identical counters and identical answer sets on the serial
// canonical backend and on sharded backends with 2 and 8 workers. This is
// the determinism contract the shard-parallel runtime is allowed to
// parallelize under (see sim/shard.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/hashing.h"
#include "dht/builder.h"
#include "dht/churn.h"
#include "dht/ring_oracle.h"
#include "pier/node.h"
#include "pier/plan.h"
#include "sim/executor.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/shard.h"

namespace pierstack {
namespace {

enum class Backend { kSerial, kSharded2, kSharded8 };

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kSerial: return "serial";
    case Backend::kSharded2: return "sharded-2";
    default: return "sharded-8";
  }
}

std::unique_ptr<sim::Executor> MakeBackend(Backend b, sim::SimTime lookahead) {
  switch (b) {
    case Backend::kSerial:
      return std::make_unique<sim::SerialExecutor>();
    case Backend::kSharded2:
      return std::make_unique<sim::ShardedExecutor>(
          sim::ShardedExecutor::Options{2, lookahead});
    default:
      return std::make_unique<sim::ShardedExecutor>(
          sim::ShardedExecutor::Options{8, lookahead});
  }
}

/// Everything the churn run can deterministically disagree on — the same
/// tuple the PR-6 fixed-seed fingerprint test locks in, now compared
/// *across backends* instead of across repeats.
using ChurnFingerprint =
    std::tuple<uint64_t,            // events executed
               uint64_t,            // sim clock
               uint64_t, uint64_t,  // net messages, bytes
               uint64_t, uint64_t,  // dropped, refused
               uint64_t,            // injected faults
               uint64_t, uint64_t, uint64_t,  // churn crashes/joins/skipped
               uint64_t, uint64_t,  // epoch bumps, detector evictions
               uint64_t, uint64_t>; // resync rounds, entries

ChurnFingerprint RunChurnScenario(Backend backend) {
  // ConstantLatency(2ms) bounds every cross-host delivery, so 2ms is the
  // sharded backend's lookahead; quantize load probes to the same grid on
  // EVERY backend so congestion reads observe identical snapshots.
  constexpr sim::SimTime kLatency = 2 * sim::kMillisecond;
  auto exec = MakeBackend(backend, kLatency);
  sim::FaultPlan plan(1001ull ^ 0xF00Dull);
  auto network = std::make_unique<sim::Network>(
      exec.get(), std::make_unique<sim::ConstantLatency>(kLatency), 42);
  network->set_load_probe_quantum(kLatency);
  network->set_fault_plan(&plan);
  dht::DhtOptions opts;
  opts.overlay = dht::OverlayKind::kChord;
  opts.replication = 3;
  opts.maintenance = true;
  auto deployment =
      std::make_unique<dht::DhtDeployment>(network.get(), 16, opts, 777);
  dht::ChurnDriver driver(deployment.get(), 1001, &plan);

  for (size_t i = 0; i < 24; ++i) {
    deployment->node(0)->Put("equiv", (i + 1) * 0x9E3779B97F4A7C15ull,
                             {uint8_t(i), 1, 2}, 0, nullptr);
  }
  exec->RunFor(5 * sim::kSecond);

  auto timeline =
      sim::FaultPlan::SustainedChurn(exec->now(), sim::kMinute, 8.0, 1002);
  driver.Schedule(timeline);
  plan.set_message_loss(0.02);
  plan.set_latency_spike(0.05, 20 * sim::kMillisecond);
  exec->RunFor(2 * sim::kMinute);

  const sim::NetworkMetrics& net = network->metrics();
  const sim::FaultCounters& f = plan.counters();
  const dht::DhtMetrics& m = deployment->metrics();
  const dht::ChurnStats& churn = driver.stats();
  return ChurnFingerprint{exec->events_executed(),
                          exec->now(),
                          net.total.messages,
                          net.total.bytes,
                          net.dropped_messages,
                          net.refused_sends,
                          f.Total(),
                          churn.crashes,
                          churn.joins,
                          churn.skipped,
                          m.epoch_bumps,
                          m.detector_evictions,
                          m.resync_rounds,
                          m.resync_entries};
}

TEST(ShardEquivalenceTest, ChurnScenarioFingerprintsMatchAcrossBackends) {
  ChurnFingerprint want = RunChurnScenario(Backend::kSerial);
  // The scenario is not vacuous: churn actually executed under faults.
  EXPECT_GT(std::get<7>(want) + std::get<8>(want), 0u);
  EXPECT_GT(std::get<4>(want), 0u);
  for (Backend b : {Backend::kSharded2, Backend::kSharded8}) {
    EXPECT_EQ(RunChurnScenario(b), want) << BackendName(b);
  }
}

// ---------------------------------------------------------------------------

/// The split-brain heal, compared across backends: a scheduled partition
/// window (keyed on send time, so it lands identically everywhere), the
/// remembered-peer merge that knits the rings back together, and the data
/// that survives. The RingOracle verdict is asserted INSIDE the scenario —
/// every backend must converge to an oracle-clean ring, and the counters
/// plus the answer set must match bit-for-bit.
using PartitionFingerprint =
    std::tuple<uint64_t, uint64_t,            // events executed, sim clock
               uint64_t, uint64_t,            // net messages, bytes
               uint64_t, uint64_t,            // merge probes, merge rounds
               uint64_t, uint64_t,            // partition heals, drops
               uint64_t,                      // epoch bumps
               std::vector<uint64_t>>;        // answered keys (sorted)

PartitionFingerprint RunPartitionHealScenario(Backend backend) {
  constexpr sim::SimTime kLatency = 2 * sim::kMillisecond;
  auto exec = MakeBackend(backend, kLatency);
  sim::FaultPlan plan(0xBEEF);
  auto network = std::make_unique<sim::Network>(
      exec.get(), std::make_unique<sim::ConstantLatency>(kLatency), 42);
  network->set_load_probe_quantum(kLatency);
  network->set_fault_plan(&plan);
  dht::DhtOptions opts;
  opts.overlay = dht::OverlayKind::kChord;
  opts.replication = 3;
  opts.maintenance = true;
  auto deployment =
      std::make_unique<dht::DhtDeployment>(network.get(), 16, opts, 777);

  dht::RingOracle oracle(deployment.get());
  std::vector<dht::Key> keys;
  for (size_t i = 0; i < 32; ++i) {
    dht::Key k = (i + 1) * 0x9E3779B97F4A7C15ull;
    keys.push_back(k);
    deployment->node(0)->Put("equiv", k, {uint8_t(i), 1, 2}, 0, nullptr);
    oracle.TrackKey("equiv", k);
  }
  exec->RunFor(20 * sim::kSecond);

  sim::FaultPlan::PartitionWindow w;
  for (size_t i = 8; i < 16; ++i) {
    w.groups[deployment->node(i)->host()] = 1;
  }
  w.start = 30 * sim::kSecond;
  w.heal_time = 80 * sim::kSecond;
  plan.AddPartitionWindow(w);
  exec->RunFor(180 * sim::kSecond);

  // The oracle-clean barrier: whatever the backend, the healed ring must
  // satisfy every invariant before answers are even compared.
  dht::RingOracleReport report = oracle.Check(exec->now());
  EXPECT_TRUE(report.clean()) << BackendName(backend) << ": "
                              << report.detail;

  std::vector<uint64_t> answered;
  for (size_t i = 0; i < keys.size(); ++i) {
    deployment->node(12)->Get("equiv", keys[i], [&answered, i](
                                                    Status s, auto values) {
      if (s.ok() && !values.empty()) answered.push_back(i);
    });
  }
  exec->RunFor(10 * sim::kSecond);
  std::sort(answered.begin(), answered.end());

  const sim::NetworkMetrics& net = network->metrics();
  const dht::DhtMetrics& m = deployment->metrics();
  return PartitionFingerprint{exec->events_executed(),
                              exec->now(),
                              net.total.messages,
                              net.total.bytes,
                              m.merge_probes,
                              m.merge_rounds,
                              m.partition_heals,
                              plan.counters().partition_drops,
                              m.epoch_bumps,
                              std::move(answered)};
}

TEST(ShardEquivalenceTest, PartitionHealFingerprintsMatchAcrossBackends) {
  PartitionFingerprint want = RunPartitionHealScenario(Backend::kSerial);
  // The scenario is not vacuous: the split really severed traffic and the
  // merge machinery really drove the heal.
  EXPECT_GT(std::get<7>(want), 0u);            // partition drops
  EXPECT_GT(std::get<4>(want), 0u);            // merge probes
  EXPECT_GT(std::get<6>(want), 0u);            // partition heals
  EXPECT_EQ(std::get<9>(want).size(), 32u);    // full recall post-heal
  for (Backend b : {Backend::kSharded2, Backend::kSharded8}) {
    EXPECT_EQ(RunPartitionHealScenario(b), want) << BackendName(b);
  }
}

// ---------------------------------------------------------------------------

const pier::Schema& ItemLikeSchema() {
  static const pier::Schema* s = new pier::Schema(
      "items",
      {{"fileID", pier::ValueType::kUint64},
       {"name", pier::ValueType::kString}},
      0);
  return *s;
}

using FetchFingerprint =
    std::tuple<uint64_t, uint64_t,            // events executed, sim clock
               uint64_t, uint64_t,            // net messages, bytes
               std::vector<uint64_t>,         // cold-round answers (sorted)
               std::vector<uint64_t>>;        // warm-round answers (sorted)

FetchFingerprint RunFetchScenario(Backend backend) {
  constexpr sim::SimTime kLatency = 5 * sim::kMillisecond;
  auto exec = MakeBackend(backend, kLatency);
  auto network = std::make_unique<sim::Network>(
      exec.get(), std::make_unique<sim::ConstantLatency>(kLatency), 17);
  network->set_load_probe_quantum(kLatency);
  auto dht = std::make_unique<dht::DhtDeployment>(network.get(), 16,
                                                  dht::DhtOptions{}, 555);
  pier::PierMetrics metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  piers.reserve(16);
  for (size_t i = 0; i < 16; ++i) {
    piers.push_back(std::make_unique<pier::PierNode>(dht->node(i), &metrics));
  }

  std::vector<pier::Tuple> items;
  for (uint64_t id = 1; id <= 40; ++id) {
    items.push_back(pier::Tuple(
        {pier::Value(id), pier::Value("item " + std::to_string(id))}));
  }
  piers[0]->PublishBatch(ItemLikeSchema(), std::move(items));
  piers[0]->FlushPublishQueues();
  exec->Run();

  auto fetch_round = [&] {
    std::vector<pier::Value> keys;
    for (uint64_t id = 1; id <= 40; ++id) keys.emplace_back(pier::Value(id));
    std::vector<uint64_t> got;
    bool done = false;
    piers[3]->FetchMany(ItemLikeSchema(), std::move(keys),
                        [&](Status s, std::vector<pier::Tuple> tuples,
                            const pier::Completeness&) {
                          done = true;
                          EXPECT_TRUE(s.ok()) << s.ToString();
                          for (const pier::Tuple& t : tuples) {
                            got.push_back(t.at(0).AsUint64());
                          }
                        });
    exec->Run();
    EXPECT_TRUE(done);
    std::sort(got.begin(), got.end());
    return got;
  };
  std::vector<uint64_t> cold = fetch_round();
  // Second round runs warm: owner caches primed, one-hop fast paths live.
  std::vector<uint64_t> warm = fetch_round();

  const sim::NetworkMetrics& net = network->metrics();
  return FetchFingerprint{exec->events_executed(), exec->now(),
                          net.total.messages,     net.total.bytes,
                          std::move(cold),        std::move(warm)};
}

TEST(ShardEquivalenceTest, WarmFetchManyAnswersMatchAcrossBackends) {
  FetchFingerprint want = RunFetchScenario(Backend::kSerial);
  EXPECT_EQ(std::get<4>(want).size(), 40u);  // every key answered, cold
  EXPECT_EQ(std::get<5>(want).size(), 40u);  // ... and warm
  for (Backend b : {Backend::kSharded2, Backend::kSharded8}) {
    EXPECT_EQ(RunFetchScenario(b), want) << BackendName(b);
  }
}

// ---------------------------------------------------------------------------

const pier::Schema& PostingSchema() {
  static const pier::Schema* s = new pier::Schema(
      "inverted",
      {{"keyword", pier::ValueType::kString},
       {"fileID", pier::ValueType::kUint64}},
      0);
  return *s;
}

/// Everything the fault-tolerant query plane decides under faults: failover
/// re-dispatches, hedge arming and wins, partial accounting — plus the
/// answers themselves. A mid-query owner crash and a fail-slow straggler
/// must drive IDENTICAL decisions on the serial backend and on 4 shards.
using RobustFingerprint =
    std::tuple<uint64_t, uint64_t,            // events executed, sim clock
               uint64_t, uint64_t,            // net messages, bytes
               uint64_t, uint64_t,            // stage failovers, partials
               uint64_t, uint64_t, uint64_t,  // hedges sent/won, plans shed
               std::vector<uint64_t>,         // join answers (sorted)
               std::vector<uint64_t>>;        // hedged fetch answers (sorted)

RobustFingerprint RunRobustQueryScenario(size_t shards) {
  constexpr sim::SimTime kLatency = 2 * sim::kMillisecond;
  std::unique_ptr<sim::Executor> exec;
  if (shards <= 1) {
    exec = std::make_unique<sim::SerialExecutor>();
  } else {
    exec = std::make_unique<sim::ShardedExecutor>(sim::ShardedExecutor::Options{
        static_cast<uint32_t>(shards), kLatency});
  }
  sim::FaultPlan plan(4242);
  auto network = std::make_unique<sim::Network>(
      exec.get(), std::make_unique<sim::ConstantLatency>(kLatency), 42);
  network->set_load_probe_quantum(kLatency);
  network->set_fault_plan(&plan);
  dht::DhtOptions opts;
  opts.replication = 3;
  opts.maintenance = true;
  // The crash and the straggler hit owners the queries reach directly
  // through the location cache; pin the default policy so the classic
  // leg's ring walk (which reroutes around the crash below the query
  // plane) still runs the scenario as written.
  opts.routing_policy = dht::RoutingPolicyKind::kCongestionAware;
  auto dht = std::make_unique<dht::DhtDeployment>(network.get(), 16, opts,
                                                  777);
  pier::PierMetrics metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  piers.reserve(16);
  for (size_t i = 0; i < 16; ++i) {
    piers.push_back(std::make_unique<pier::PierNode>(dht->node(i), &metrics));
  }

  std::vector<pier::Tuple> postings, items;
  for (uint64_t f = 0; f < 60; ++f) {
    postings.push_back(
        pier::Tuple({pier::Value("alpha"), pier::Value(f)}));
  }
  for (uint64_t f = 1; f <= 24; ++f) {
    items.push_back(pier::Tuple(
        {pier::Value(f), pier::Value("item " + std::to_string(f))}));
  }
  piers[0]->PublishBatch(PostingSchema(), std::move(postings));
  piers[0]->PublishBatch(ItemLikeSchema(), std::move(items));
  piers[0]->FlushPublishQueues();
  exec->RunFor(10 * sim::kSecond);

  // Fail-slow leg: the first item key's owner straggles mildly; one warm
  // fetch round teaches the latency EWMA, then the straggle hardens past
  // the hedge delay so the backup-replica race decides the second round.
  dht::Key item_key =
      HashCombine(Fnv1a64("items"), pier::Value(uint64_t{1}).Hash());
  sim::HostId slow = dht->ExpectedOwner(item_key)->host();
  size_t origin_idx = 0;
  for (size_t i = 0; i < 16; ++i) {
    if (dht->node(i)->host() != slow) {
      origin_idx = i;
      break;
    }
  }
  auto fetch_round = [&](std::vector<uint64_t>* out) {
    std::vector<pier::Value> keys;
    for (uint64_t f = 1; f <= 24; ++f) keys.emplace_back(pier::Value(f));
    piers[origin_idx]->FetchMany(
        ItemLikeSchema(), std::move(keys),
        [out](Status, std::vector<pier::Tuple> tuples,
              const pier::Completeness&) {
          if (out == nullptr) return;
          for (const pier::Tuple& t : tuples) {
            out->push_back(t.at(0).AsUint64());
          }
        });
    exec->RunFor(15 * sim::kSecond);
  };
  plan.AddFailSlow(slow, exec->now(), 10 * sim::kMinute,
                   100 * sim::kMillisecond);
  fetch_round(nullptr);  // warm the EWMA toward the straggler
  plan.AddFailSlow(slow, exec->now(), 10 * sim::kMinute, 2 * sim::kSecond);
  std::vector<uint64_t> fetched;
  fetch_round(&fetched);
  std::sort(fetched.begin(), fetched.end());

  // Failover leg: crash the posting owner while the stage-0 message is on
  // the wire; the no-progress watchdog must re-dispatch onto the replica.
  dht::Key posting_key =
      HashCombine(Fnv1a64("inverted"), pier::Value("alpha").Hash());
  dht::DhtNode* owner = dht->ExpectedOwner(posting_key);
  size_t join_idx = 0;
  for (size_t i = 0; i < 16; ++i) {
    if (dht->node(i) != owner && dht->node(i)->host() != slow) {
      join_idx = i;
      break;
    }
  }
  std::vector<uint64_t> answered;
  piers[join_idx]->ExecutePlan(
      pier::PlanBuilder().IndexScan("inverted", pier::Value("alpha")).Build(),
      [&answered](Status, std::vector<pier::Tuple> rows,
                  const pier::Completeness&) {
        for (const pier::Tuple& r : rows) {
          answered.push_back(r.at(0).AsUint64());
        }
      },
      /*timeout=*/20 * sim::kSecond);
  exec->ScheduleAfter(owner->host(), sim::kMillisecond,
                      [owner]() { owner->Crash(); });
  exec->RunFor(30 * sim::kSecond);
  std::sort(answered.begin(), answered.end());

  const sim::NetworkMetrics& net = network->metrics();
  return RobustFingerprint{exec->events_executed(),
                           exec->now(),
                           net.total.messages,
                           net.total.bytes,
                           metrics.stage_failovers,
                           metrics.partial_results,
                           metrics.hedges_sent,
                           metrics.hedges_won,
                           metrics.plans_shed,
                           std::move(answered),
                           std::move(fetched)};
}

TEST(ShardEquivalenceTest, FailoverAndHedgeDecisionsMatchAcrossBackends) {
  RobustFingerprint want = RunRobustQueryScenario(1);
  // The scenario is not vacuous: the crash forced a failover, the
  // straggler forced a hedge, and both legs still answered in full.
  EXPECT_GE(std::get<4>(want), 1u);               // stage failovers
  EXPECT_GE(std::get<6>(want), 1u);               // hedges sent
  EXPECT_GE(std::get<7>(want), 1u);               // hedges won
  EXPECT_EQ(std::get<9>(want).size(), 60u);       // join answers
  EXPECT_EQ(std::get<10>(want).size(), 24u);      // fetch answers
  EXPECT_EQ(RunRobustQueryScenario(4), want) << "sharded-4";
}

}  // namespace
}  // namespace pierstack
