// End-to-end churn harness: scripted FaultPlan timelines executed by
// ChurnDriver against a live deployment, with every layer's counters
// exported through the common CounterSet currency — and the whole run a
// pure function of its seeds (the fixed-seed fingerprint test locks in
// that Crash() cancels a node's pending events, so when a crash lands
// never changes what the surviving events observe).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.h"
#include "dht/builder.h"
#include "dht/churn.h"
#include "dht/ring_oracle.h"
#include "sim/executor.h"
#include "sim/fault.h"
#include "sim/network.h"

namespace pierstack::dht {
namespace {

constexpr char kNs[] = "churn";

struct Harness {
  // Env-selected backend (sim/executor.h): serial by default, the sharded
  // event loop under PIERSTACK_SHARDS>1 (the CI shards-4 leg). 2ms is the
  // constant latency below, i.e. the sharded backend's lookahead.
  std::unique_ptr<sim::Executor> exec =
      sim::MakeEnvExecutor(2 * sim::kMillisecond);
  sim::Executor& simulator = *exec;
  std::unique_ptr<sim::Network> network;
  sim::FaultPlan plan;
  std::unique_ptr<DhtDeployment> dht;
  std::unique_ptr<ChurnDriver> driver;

  Harness(size_t n, size_t replication, uint64_t churn_seed)
      : plan(churn_seed ^ 0xF00Dull) {
    network = std::make_unique<sim::Network>(
        exec.get(), std::make_unique<sim::ConstantLatency>(2 * sim::kMillisecond),
        42);
    network->set_fault_plan(&plan);
    DhtOptions opts;
    opts.overlay = OverlayKind::kChord;
    opts.replication = replication;
    opts.maintenance = true;
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 777);
    driver = std::make_unique<ChurnDriver>(dht.get(), churn_seed, &plan);
  }

  void PublishKeys(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      dht->node(0)->Put(kNs, (i + 1) * 0x9E3779B97F4A7C15ull,
                        {uint8_t(i), 1, 2}, 0, nullptr);
    }
  }
};

/// Everything a run can deterministically disagree on, in one tuple.
using Fingerprint = std::tuple<uint64_t,  // events executed
                               uint64_t,  // sim clock
                               uint64_t, uint64_t,  // net messages, bytes
                               uint64_t, uint64_t,  // dropped, refused
                               uint64_t,            // injected faults
                               uint64_t, uint64_t,  // churn crashes, joins
                               uint64_t, uint64_t,  // churn restarts, skipped
                               uint64_t, uint64_t,  // epoch bumps, evictions
                               uint64_t, uint64_t,  // resync rounds, entries
                               uint64_t, uint64_t>; // merge probes, heals

Fingerprint RunScenario(uint64_t churn_seed) {
  Harness h(16, 3, churn_seed);
  h.PublishKeys(24);
  h.simulator.RunFor(5 * sim::kSecond);

  auto timeline = sim::FaultPlan::SustainedChurn(
      h.simulator.now(), sim::kMinute, 8.0, churn_seed + 1);
  h.driver->Schedule(timeline);
  // Crash-then-restart pair after the churn wave: the restart path (same
  // identity, durable store recovery) is part of the locked fingerprint.
  h.driver->Schedule(sim::FaultPlan::CrashRestart(
      80 * sim::kSecond, 95 * sim::kSecond, 2));
  // A scheduled split across half the initial hosts, healed mid-run: the
  // remembered-peer probes and ring-merge rounds must land identically on
  // every backend (window decisions key on send time alone).
  sim::FaultPlan::PartitionWindow w;
  for (size_t i = 8; i < 16; ++i) {
    w.groups[h.dht->node(i)->host()] = 1;
  }
  w.start = 20 * sim::kSecond;
  w.heal_time = 50 * sim::kSecond;
  h.plan.AddPartitionWindow(w);
  h.plan.set_message_loss(0.02);
  h.plan.set_latency_spike(0.05, 20 * sim::kMillisecond);
  h.simulator.RunFor(2 * sim::kMinute);

  const sim::NetworkMetrics& net = h.network->metrics();
  const sim::FaultCounters& f = h.plan.counters();
  const DhtMetrics& m = h.dht->metrics();
  const ChurnStats& churn = h.driver->stats();
  return Fingerprint{h.simulator.events_executed(),
                     h.simulator.now(),
                     net.total.messages,
                     net.total.bytes,
                     net.dropped_messages,
                     net.refused_sends,
                     f.Total(),
                     churn.crashes,
                     churn.joins,
                     churn.restarts,
                     churn.skipped,
                     m.epoch_bumps,
                     m.detector_evictions,
                     m.resync_rounds,
                     m.resync_entries,
                     m.merge_probes,
                     m.partition_heals};
}

TEST(ChurnHarnessTest, FixedSeedRunsAreFingerprintIdentical) {
  Fingerprint a = RunScenario(1001);
  Fingerprint b = RunScenario(1001);
  EXPECT_EQ(a, b);
  // The scenario is not vacuous: churn actually executed.
  EXPECT_GT(std::get<7>(a) + std::get<8>(a), 0u);
}

TEST(ChurnHarnessTest, DifferentSeedsDiverge) {
  EXPECT_NE(RunScenario(1001), RunScenario(2002));
}

TEST(ChurnHarnessTest, QuiescedPostChurnRingSatisfiesOracle) {
  Harness h(16, 3, 4242);
  h.PublishKeys(24);
  h.simulator.RunFor(5 * sim::kSecond);

  auto timeline = sim::FaultPlan::SustainedChurn(
      h.simulator.now(), sim::kMinute, 6.0, 17);
  h.driver->Schedule(timeline);
  h.driver->Schedule(sim::FaultPlan::CrashRestart(
      75 * sim::kSecond, 90 * sim::kSecond, 1));
  h.simulator.RunFor(2 * sim::kMinute);
  // Churn over; give maintenance two quiet minutes to converge.
  h.simulator.RunFor(2 * sim::kMinute);

  RingOracle oracle(h.dht.get());
  for (size_t i = 0; i < 24; ++i) {
    oracle.TrackKey(kNs, (i + 1) * 0x9E3779B97F4A7C15ull);
  }
  RingOracleReport report = oracle.Check(h.simulator.now());
  EXPECT_TRUE(report.clean()) << report.detail;
}

TEST(ChurnHarnessTest, CrashCancelsPendingNodeEvents) {
  Harness h(10, 3, 9);
  h.simulator.RunFor(2 * sim::kSecond);
  // A live maintained node holds standing timers (stabilize, fix-finger,
  // detector, re-sync); Crash() must cancel them all so a dead node never
  // fires another event.
  size_t pending_before = h.simulator.pending();
  h.dht->node(5)->Crash();
  EXPECT_LT(h.simulator.pending(), pending_before);
}

TEST(ChurnHarnessTest, CountersFlowThroughCounterSetEndToEnd) {
  Harness h(16, 3, 77);
  h.PublishKeys(24);
  h.simulator.RunFor(5 * sim::kSecond);

  auto timeline = sim::FaultPlan::SustainedChurn(h.simulator.now(),
                                                 sim::kMinute, 10.0, 5);
  h.driver->Schedule(timeline);
  h.simulator.RunFor(90 * sim::kSecond);

  CounterSet out;
  sim::ExportNetworkCounters(*h.network, &out);
  ExportTransportCounters(h.dht->metrics(), &out);

  // Network layer live, including the churn the driver reported back.
  EXPECT_GT(out.Value("net.messages"), 0u);
  EXPECT_GT(out.Value("net.bytes"), 0u);
  EXPECT_EQ(out.Value("net.fault_churn_crashes"), h.driver->stats().crashes);
  EXPECT_EQ(out.Value("net.fault_churn_joins"), h.driver->stats().joins);
  EXPECT_GT(out.Value("net.fault_churn_joins"), 0u);
  // Crashed peers refuse sends until evicted; the refused slice never
  // exceeds the total drop counter it is part of.
  EXPECT_GT(out.Value("net.refused_sends"), 0u);
  EXPECT_GE(out.Value("net.dropped_messages"), out.Value("net.refused_sends"));

  // DHT robustness machinery live: ownership changes fenced caches and
  // armed re-sync.
  EXPECT_GT(out.Value("dht.epoch_bumps"), 0u);
  EXPECT_GT(out.Value("dht.resync_rounds"), 0u);
}

}  // namespace
}  // namespace pierstack::dht
