// RingOracle: the invariants pass on healthy rings and — crucially — each
// known-bad ring trips EXACTLY the invariant that names its defect. The
// independence is what makes an oracle verdict diagnostic rather than a
// single opaque "unhealthy" bit.
#include "dht/ring_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dht/chord.h"
#include "dht/node.h"

namespace pierstack::dht {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

struct Deployment {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  explicit Deployment(size_t n, size_t replication = 3,
                      bool maintenance = true) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(2 * sim::kMillisecond), 42);
    DhtOptions opts;
    opts.overlay = OverlayKind::kChord;
    opts.replication = replication;
    opts.maintenance = maintenance;
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 777);
  }

  void Settle(sim::SimTime duration = 10 * sim::kSecond) {
    simulator.RunFor(duration);
  }

  ChordRouting& chord_of(size_t i) {
    return static_cast<ChordRouting&>(dht->node(i)->routing());
  }

  /// Deployment indices sorted by ring id — the ring order the known-bad
  /// constructions slice.
  std::vector<size_t> RingOrder() {
    std::vector<size_t> idx(dht->size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return dht->node(a)->id() < dht->node(b)->id();
    });
    return idx;
  }
};

TEST(RingOracleTest, HealthyRingIsCleanWithTrackedKeys) {
  Deployment d(12);
  Rng rng(9);
  RingOracle oracle(d.dht.get());
  for (int i = 0; i < 50; ++i) {
    Key k = rng.Next();
    d.dht->node(0)->Put("ns", k, Bytes("v" + std::to_string(i)));
    oracle.TrackKey("ns", k);
  }
  d.Settle(30 * sim::kSecond);

  RingOracleReport report = oracle.Check(d.simulator.now());
  EXPECT_TRUE(report.clean()) << report.detail;
  EXPECT_EQ(report.violations(), 0);
  EXPECT_EQ(oracle.tracked_keys(), 50u);
}

TEST(RingOracleTest, SplitRingTripsOnlyConnectivity) {
  // Maintenance off: the known-bad state must stay exactly as constructed.
  Deployment d(12, /*replication=*/3, /*maintenance=*/false);
  // Rebuild each ring-order half against only its own members: two
  // internally consistent rings that never reference each other — the
  // steady state of an unhealed split brain.
  std::vector<size_t> order = d.RingOrder();
  std::vector<NodeInfo> half_a, half_b;
  for (size_t pos = 0; pos < order.size(); ++pos) {
    NodeInfo info = d.dht->node(order[pos])->info();
    (pos < order.size() / 2 ? half_a : half_b).push_back(info);
  }
  for (size_t pos = 0; pos < order.size(); ++pos) {
    d.dht->node(order[pos])->BootstrapStatic(pos < order.size() / 2 ? half_a
                                                                    : half_b);
  }

  RingOracle oracle(d.dht.get());
  RingOracleReport report = oracle.Check(d.simulator.now());
  EXPECT_FALSE(report.connectivity);
  EXPECT_EQ(report.violations(), 1) << report.detail;
  // Each half is internally well-ordered and self-consistent: the split is
  // a connectivity defect, nothing else.
  EXPECT_TRUE(report.ordering);
  EXPECT_TRUE(report.predecessors_valid);
  EXPECT_TRUE(report.ownership_cover);
}

TEST(RingOracleTest, DanglingPredecessorTripsOnlyThatInvariant) {
  Deployment d(10, /*replication=*/3, /*maintenance=*/false);
  // Same ring id, dead host: the owned arc is unchanged (so ownership
  // stays covered) but the pointer names a host that no longer exists —
  // the exact garbage a missed eviction leaves behind.
  ChordRouting& c = d.chord_of(4);
  NodeInfo stale = c.predecessor();
  ASSERT_TRUE(stale.valid());
  stale.host = 9999;  // no such host in the deployment
  c.SetPredecessor(stale);

  RingOracle oracle(d.dht.get());
  RingOracleReport report = oracle.Check(d.simulator.now());
  EXPECT_FALSE(report.predecessors_valid);
  EXPECT_EQ(report.violations(), 1) << report.detail;
  EXPECT_TRUE(report.connectivity);
  EXPECT_TRUE(report.ordering);
}

TEST(RingOracleTest, UnderReplicatedKeyTripsOnlyTheFloor) {
  Deployment d(8, /*replication=*/3, /*maintenance=*/false);
  Key k = KeyForString("under-replicated");
  d.dht->node(0)->Put("ns", k, Bytes("v"));
  d.Settle(5 * sim::kSecond);

  RingOracle oracle(d.dht.get());
  oracle.TrackKey("ns", k);
  ASSERT_TRUE(oracle.Check(d.simulator.now()).clean());

  // Drop ONE replica's copy: below the floor of 3, but not orphaned.
  for (size_t i = 0; i < d.dht->size(); ++i) {
    if (d.dht->node(i)->store().Has("ns", k, d.simulator.now())) {
      d.dht->node(i)->store().ExtractRange("ns", k - 1, k);
      break;
    }
  }
  RingOracleReport report = oracle.Check(d.simulator.now());
  EXPECT_FALSE(report.replication_floor);
  EXPECT_EQ(report.violations(), 1) << report.detail;
  EXPECT_TRUE(report.no_orphans);
  EXPECT_TRUE(report.ownership_cover);
}

TEST(RingOracleTest, OrphanedKeyTripsBothDataInvariants) {
  Deployment d(8, /*replication=*/3, /*maintenance=*/false);
  Key k = KeyForString("orphaned");
  d.dht->node(0)->Put("ns", k, Bytes("v"));
  d.Settle(5 * sim::kSecond);

  RingOracle oracle(d.dht.get());
  oracle.TrackKey("ns", k);
  for (size_t i = 0; i < d.dht->size(); ++i) {
    d.dht->node(i)->store().ExtractRange("ns", k - 1, k);
  }
  RingOracleReport report = oracle.Check(d.simulator.now());
  // Total loss is partial loss too: the weaker floor and the alarm both
  // fire, which is exactly the distinction the two invariants encode.
  EXPECT_FALSE(report.no_orphans);
  EXPECT_FALSE(report.replication_floor);
  EXPECT_EQ(report.violations(), 2) << report.detail;
  EXPECT_TRUE(report.connectivity);
}

}  // namespace
}  // namespace pierstack::dht
