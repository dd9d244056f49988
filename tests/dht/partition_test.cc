// Partition tolerance: split-brain ring merge through remembered-peer
// reconciliation, durable vs amnesia restart recovery, and the ChurnDriver's
// crash/restart bookkeeping.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dht/builder.h"
#include "dht/chord.h"
#include "dht/churn.h"
#include "dht/node.h"
#include "dht/ring_oracle.h"
#include "sim/fault.h"

namespace pierstack::dht {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

struct Deployment {
  sim::SerialExecutor simulator;
  sim::FaultPlan plan;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  explicit Deployment(size_t n, uint64_t fault_seed = 0xF00D) : plan(fault_seed) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(2 * sim::kMillisecond), 42);
    network->set_fault_plan(&plan);
    DhtOptions opts;
    opts.overlay = OverlayKind::kChord;
    opts.replication = 3;
    opts.maintenance = true;
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 777);
  }

  void Settle(sim::SimTime duration) { simulator.RunFor(duration); }

  /// Recall over `keys` probed from `prober`: how many answered non-empty.
  size_t Recall(const std::vector<Key>& keys, size_t prober) {
    size_t ok = 0;
    for (Key k : keys) {
      dht->node(prober)->Get("ns", k, [&](Status s, auto values) {
        if (s.ok() && !values.empty()) ++ok;
      });
    }
    Settle(10 * sim::kSecond);
    return ok;
  }
};

TEST(PartitionTest, SplitBrainMergeRestoresOneRingAndRecall) {
  Deployment d(16);
  Rng rng(5);
  RingOracle oracle(d.dht.get());
  std::vector<Key> keys;
  for (int i = 0; i < 100; ++i) {
    Key k = rng.Next();
    keys.push_back(k);
    d.dht->node(0)->Put("ns", k, Bytes("v" + std::to_string(i)));
    oracle.TrackKey("ns", k);
  }
  d.Settle(30 * sim::kSecond);
  ASSERT_TRUE(oracle.Check(d.simulator.now()).clean());
  ASSERT_EQ(d.Recall(keys, 3), keys.size());

  // Split the deployment down the middle for 60 seconds. The window is
  // scheduled on SEND time, so the split and heal need no driver events.
  sim::FaultPlan::PartitionWindow w;
  for (size_t i = 8; i < d.dht->size(); ++i) {
    w.groups[d.dht->node(i)->host()] = 1;
  }
  w.start = 40 * sim::kSecond;
  w.heal_time = 100 * sim::kSecond;
  d.plan.AddPartitionWindow(w);

  // Mid-split, both sides accept a write under the SAME key: the classic
  // split-brain divergence the merge must union, not clobber.
  Key divergent = KeyForString("divergent-key");
  d.simulator.ScheduleAt(sim::kDriverHost, 70 * sim::kSecond, [&] {
    d.dht->node(2)->Put("ns2", divergent, Bytes("side-a"));
    d.dht->node(10)->Put("ns2", divergent, Bytes("side-b"));
  });

  // Run through the split and well past the heal: detector eviction, per-
  // side repair, remembered-peer reconciliation, ring merge, re-sync.
  d.Settle(300 * sim::kSecond);

  // One ring again, invariants clean, and the split cost no data.
  RingOracleReport report = oracle.Check(d.simulator.now());
  EXPECT_TRUE(report.clean()) << report.detail;
  size_t recall = d.Recall(keys, 12);
  EXPECT_GE(recall * 1000, keys.size() * 980);  // the ≥98% recall gate

  // The merge machinery actually drove the heal (not detector luck): peers
  // were remembered, probed, and re-contacted across the boundary.
  const DhtMetrics& m = d.dht->metrics();
  EXPECT_GT(m.merge_probes.value(), 0u);
  EXPECT_GT(m.merge_rounds.value(), 0u);
  EXPECT_GT(m.partition_heals.value(), 0u);
  EXPECT_GT(d.plan.counters().partition_drops, 0u);

  // Cross-partition OwnerHints were fenced AND purged by post-merge epoch
  // bumps — counted as stale, not left to capacity-starve fresh arcs. (The
  // classic policy runs without the owner location cache: nothing to
  // fence.)
  if (d.dht->options().routing_policy != RoutingPolicyKind::kClassicChord) {
    EXPECT_GT(m.route_cache_stale.value(), 0u);
  }

  // Both divergent writes survive the merge, readable from either side.
  std::vector<std::vector<uint8_t>> merged;
  d.dht->node(5)->Get("ns2", divergent, [&](Status s, auto values) {
    if (s.ok()) {
      for (const auto& v : values) merged.push_back(v);
    }
  });
  d.Settle(10 * sim::kSecond);
  EXPECT_EQ(merged.size(), 2u);
}

TEST(PartitionTest, DurableRestartKeepsIdentityAndStore) {
  Deployment d(12);
  Rng rng(6);
  RingOracle oracle(d.dht.get());
  std::vector<Key> keys;
  for (int i = 0; i < 150; ++i) {
    Key k = rng.Next();
    keys.push_back(k);
    d.dht->node(1)->Put("ns", k, Bytes("v"));
    oracle.TrackKey("ns", k);
  }
  d.Settle(30 * sim::kSecond);

  DhtNode* victim = d.dht->node(5);
  sim::HostId host_before = victim->host();
  Key id_before = victim->id();
  ASSERT_GT(victim->store().TotalEntries(0), 0u);

  victim->Crash();
  EXPECT_TRUE(victim->crashed());
  EXPECT_FALSE(victim->joined());
  d.Settle(60 * sim::kSecond);  // ring repairs; replicas restore the floor

  victim->Restart(d.dht->node(0)->host(), /*durable=*/true);
  d.Settle(60 * sim::kSecond);

  // Same identity, recovered store, rejoined ring.
  EXPECT_TRUE(victim->joined());
  EXPECT_FALSE(victim->crashed());
  EXPECT_EQ(victim->host(), host_before);
  EXPECT_EQ(victim->id(), id_before);
  EXPECT_GT(victim->store().TotalEntries(0), 0u);

  RingOracleReport report = oracle.Check(d.simulator.now());
  EXPECT_TRUE(report.clean()) << report.detail;
  EXPECT_EQ(d.Recall(keys, 2), keys.size());
}

TEST(PartitionTest, DurableRestartReshipsFewerBytesThanAmnesia) {
  // Identical scenario, identical victim, only the disk differs. The
  // durable reboot re-syncs by digest diff; the amnesiac one re-pulls its
  // whole arc. Final answers must not differ — only the bytes moved.
  auto run = [](bool durable) {
    Deployment d(12);
    Rng rng(7);
    std::vector<Key> keys;
    for (int i = 0; i < 150; ++i) {
      Key k = rng.Next();
      keys.push_back(k);
      d.dht->node(1)->Put("ns", k, Bytes("payload-" + std::to_string(i)));
    }
    d.Settle(30 * sim::kSecond);
    d.dht->node(5)->Crash();
    d.Settle(60 * sim::kSecond);
    uint64_t bytes_before = d.dht->metrics().resync_bytes.value();
    d.dht->node(5)->Restart(d.dht->node(0)->host(), durable);
    d.Settle(90 * sim::kSecond);
    uint64_t resynced = d.dht->metrics().resync_bytes.value() - bytes_before;
    return std::make_pair(resynced, d.Recall(keys, 3));
  };

  auto [durable_bytes, durable_recall] = run(true);
  auto [amnesia_bytes, amnesia_recall] = run(false);
  EXPECT_EQ(durable_recall, 150u);
  EXPECT_EQ(amnesia_recall, 150u);  // identical answers either way
  EXPECT_LT(durable_bytes, amnesia_bytes);
}

TEST(PartitionTest, AmnesiaRestartComesBackEmptyButSameIdentity) {
  Deployment d(10);
  Rng rng(8);
  for (int i = 0; i < 80; ++i) {
    d.dht->node(1)->Put("ns", rng.Next(), Bytes("v"));
  }
  d.Settle(30 * sim::kSecond);
  DhtNode* victim = d.dht->node(4);
  sim::HostId host_before = victim->host();
  Key id_before = victim->id();
  ASSERT_GT(victim->store().TotalEntries(0), 0u);

  victim->Crash();
  d.Settle(30 * sim::kSecond);
  victim->Restart(d.dht->node(0)->host(), /*durable=*/false);
  // Amnesia: identity survives (it is the node's NAME, not its disk), the
  // store does not — it restarts empty at the instant of reboot.
  EXPECT_EQ(victim->host(), host_before);
  EXPECT_EQ(victim->id(), id_before);
  EXPECT_EQ(victim->store().TotalEntries(0), 0u);
  d.Settle(60 * sim::kSecond);
  EXPECT_TRUE(victim->joined());
}

TEST(PartitionTest, ChurnDriverRestartReusesOriginalIdentity) {
  Deployment d(12);
  ChurnDriver driver(d.dht.get(), /*seed=*/1234, &d.plan);

  std::vector<std::pair<sim::HostId, Key>> identity_before;
  for (size_t i = 0; i < d.dht->size(); ++i) {
    identity_before.push_back({d.dht->node(i)->host(), d.dht->node(i)->id()});
  }

  driver.Schedule(sim::FaultPlan::CrashRestart(
      20 * sim::kSecond, 60 * sim::kSecond, /*count=*/2));
  d.Settle(200 * sim::kSecond);

  EXPECT_EQ(driver.stats().crashes, 2u);
  EXPECT_EQ(driver.stats().restarts, 2u);
  EXPECT_EQ(driver.stats().skipped, 0u);
  EXPECT_EQ(d.plan.counters().churn_restarts, 2u);

  // No node was replaced: the restarts revived the SAME hosts under the
  // SAME ring keys, and everyone is back in the ring.
  ASSERT_EQ(d.dht->size(), identity_before.size());
  for (size_t i = 0; i < d.dht->size(); ++i) {
    EXPECT_EQ(d.dht->node(i)->host(), identity_before[i].first) << i;
    EXPECT_EQ(d.dht->node(i)->id(), identity_before[i].second) << i;
    EXPECT_TRUE(d.dht->node(i)->joined()) << i;
  }
}

TEST(PartitionTest, RestartBeforeCrashIsANoOp) {
  Deployment d(8);
  d.Settle(10 * sim::kSecond);
  DhtNode* n = d.dht->node(3);
  ASSERT_TRUE(n->joined());
  n->Restart(d.dht->node(0)->host());  // not crashed: nothing happens
  EXPECT_TRUE(n->joined());
  EXPECT_FALSE(n->crashed());
}

}  // namespace
}  // namespace pierstack::dht
