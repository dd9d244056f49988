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

struct Deployment {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  explicit Deployment(size_t n, DhtOptions opts) {
    network = std::make_unique<sim::Network>(
        &simulator, std::make_unique<sim::ConstantLatency>(2 * sim::kMillisecond),
        42);
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 777);
  }

  void Settle(sim::SimTime duration) { simulator.RunFor(duration); }
};

DhtOptions DetectorOptions() {
  DhtOptions opts;
  opts.overlay = OverlayKind::kChord;
  opts.maintenance = true;
  opts.failure_detector = true;
  opts.ping_interval = 200 * sim::kMillisecond;
  opts.ping_miss_threshold = 2;
  // Slow stabilize so the detector, not the stabilize probe, is what
  // notices failures in these tests.
  opts.stabilize_interval = 5 * sim::kSecond;
  return opts;
}

TEST(FailureDetectorTest, PingsRunOnlyWhenEnabled) {
  DhtOptions on = DetectorOptions();
  Deployment d(8, on);
  d.Settle(2 * sim::kSecond);
  EXPECT_GT(d.dht->metrics().detector_pings, 0u);
  EXPECT_EQ(d.dht->metrics().detector_evictions, 0u);  // healthy ring

  DhtOptions off = DetectorOptions();
  off.failure_detector = false;
  Deployment quiet(8, off);
  quiet.Settle(2 * sim::kSecond);
  EXPECT_EQ(quiet.dht->metrics().detector_pings, 0u);
}

TEST(FailureDetectorTest, PartitionedPeerIsEvictedWithinBoundedRounds) {
  Deployment d(10, DetectorOptions());
  sim::FaultPlan plan(5);
  d.network->set_fault_plan(&plan);
  d.Settle(sim::kSecond);  // healthy steady state first

  // Cut one node off. Its host stays up, so every send to it is accepted
  // and lost in flight — the refused-send failure signal never fires.
  DhtNode* isolated = d.dht->node(4);
  plan.AssignPartition(isolated->host(), 1);

  uint64_t evictions_before = d.dht->metrics().detector_evictions;
  // Bound: suspicion needs ping_miss_threshold unanswered rounds plus the
  // round that acts on the threshold, each one ping_interval apart. Give
  // that twice over for scheduling stagger.
  d.Settle(2 * (3 + 1) * 200 * sim::kMillisecond);
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
  Deployment d(10, DetectorOptions());
  d.Settle(sim::kSecond);

  d.dht->node(6)->Crash();
  uint64_t evictions_before = d.dht->metrics().detector_evictions;
  // A refused ping (host down at send) evicts immediately at the next
  // detector round — no miss accumulation needed.
  d.Settle(2 * 200 * sim::kMillisecond);
  EXPECT_GT(d.dht->metrics().detector_evictions, evictions_before);
}

TEST(FailureDetectorTest, HealedPartitionStopsEvictions) {
  Deployment d(10, DetectorOptions());
  sim::FaultPlan plan(5);
  d.network->set_fault_plan(&plan);
  d.Settle(sim::kSecond);

  plan.AssignPartition(d.dht->node(4)->host(), 1);
  d.Settle(3 * sim::kSecond);
  plan.Heal();
  d.Settle(3 * sim::kSecond);

  uint64_t evictions_after_heal = d.dht->metrics().detector_evictions;
  d.Settle(5 * sim::kSecond);
  // Steady state after heal: no further suspicion.
  EXPECT_EQ(d.dht->metrics().detector_evictions, evictions_after_heal);
}

}  // namespace
}  // namespace pierstack::dht
