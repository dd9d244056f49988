// Proactive failure detector: liveness pings must discover dead or
// partitioned ring neighbors within a bounded number of ping rounds —
// independent of the stabilize cadence, and in particular under a network
// partition, where refused-send detection is blind (nothing is ever sent
// to the unreachable peer by the application, and pings to it are lost in
// flight rather than refused).
#include <gtest/gtest.h>

#include <memory>

#include "dht/builder.h"
#include "sim/executor.h"
#include "sim/fault.h"
#include "sim/network.h"

namespace pierstack::dht {
namespace {

/// The detector's cadence (dht/node.cc): a ping round every 300 ms, and
/// eviction after two unanswered rounds.
constexpr sim::SimTime kPingInterval = 300 * sim::kMillisecond;
constexpr uint64_t kPingMissThreshold = 2;
/// A window that stays open for the rest of any test here.
constexpr sim::SimTime kNever = 24 * 60 * sim::kMinute;

struct Deployment {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  explicit Deployment(size_t n) {
    network = std::make_unique<sim::Network>(
        &simulator, std::make_unique<sim::ConstantLatency>(2 * sim::kMillisecond),
        42);
    DhtOptions opts;
    opts.overlay = OverlayKind::kChord;
    opts.maintenance = true;
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 777);
  }

  void Settle(sim::SimTime duration) { simulator.RunFor(duration); }
};

/// Cuts `host` off from everyone else for sends in [start, heal_time).
sim::FaultPlan::PartitionWindow Isolate(sim::HostId host, sim::SimTime start,
                                        sim::SimTime heal_time) {
  sim::FaultPlan::PartitionWindow w;
  w.groups[host] = 1;
  w.start = start;
  w.heal_time = heal_time;
  return w;
}

TEST(FailureDetectorTest, PingsRunWithoutEvictionsOnAHealthyRing) {
  Deployment d(8);
  d.Settle(2 * sim::kSecond);
  EXPECT_GT(d.dht->metrics().detector_pings, 0u);
  EXPECT_EQ(d.dht->metrics().detector_evictions, 0u);  // healthy ring
}

TEST(FailureDetectorTest, PartitionedPeerIsEvictedWithinBoundedRounds) {
  Deployment d(10);
  sim::FaultPlan plan(5);
  d.network->set_fault_plan(&plan);
  d.Settle(sim::kSecond);  // healthy steady state first

  // Cut one node off. Its host stays up, so every send to it is accepted
  // and lost in flight — the refused-send failure signal never fires.
  DhtNode* isolated = d.dht->node(4);
  plan.AddPartitionWindow(
      Isolate(isolated->host(), d.simulator.now(), kNever));

  uint64_t evictions_before = d.dht->metrics().detector_evictions;
  // Bound: suspicion needs kPingMissThreshold unanswered rounds, the round
  // that acts on the threshold and the round in progress at the cut, each
  // one ping interval apart. Give that twice over for scheduling stagger.
  d.Settle(2 * (kPingMissThreshold + 2) * kPingInterval);
  EXPECT_GT(d.dht->metrics().detector_evictions, evictions_before);
  EXPECT_GT(plan.counters().partition_drops, 0u);

  // The majority side keeps working across the cut: a put routed from the
  // majority completes once the isolated node is evicted.
  bool put_ok = false;
  d.dht->node(1)->Put("fd", 0x1234567890ABCDEFull, {1, 2, 3}, 0,
                      [&](Status s) { put_ok = s.ok(); });
  d.Settle(5 * sim::kSecond);
  EXPECT_TRUE(put_ok);
}

TEST(FailureDetectorTest, CrashedPeerIsEvictedByRefusedPing) {
  Deployment d(10);
  d.Settle(sim::kSecond);

  d.dht->node(6)->Crash();
  uint64_t evictions_before = d.dht->metrics().detector_evictions;
  // A refused ping (host down at send) evicts immediately at the next
  // detector round — no miss accumulation needed.
  d.Settle(2 * kPingInterval);
  EXPECT_GT(d.dht->metrics().detector_evictions, evictions_before);
}

TEST(FailureDetectorTest, HealedPartitionStopsEvictions) {
  Deployment d(10);
  sim::FaultPlan plan(5);
  d.network->set_fault_plan(&plan);
  d.Settle(sim::kSecond);

  sim::SimTime cut = d.simulator.now();
  plan.AddPartitionWindow(
      Isolate(d.dht->node(4)->host(), cut, cut + 3 * sim::kSecond));
  d.Settle(6 * sim::kSecond);  // 3 s cut off, then 3 s healed

  uint64_t evictions_after_heal = d.dht->metrics().detector_evictions;
  d.Settle(5 * sim::kSecond);
  // Steady state after heal: no further suspicion.
  EXPECT_EQ(d.dht->metrics().detector_evictions, evictions_after_heal);
}

}  // namespace
}  // namespace pierstack::dht
