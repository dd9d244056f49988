#include "sim/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/network.h"

namespace pierstack::sim {
namespace {

struct Payload {
  std::string text;
};

class Recorder : public Host {
 public:
  void HandleMessage(HostId from, const Message& msg) override {
    received.push_back({from, msg.as<Payload>().text});
  }
  std::vector<std::pair<HostId, std::string>> received;
};

Message Msg(const std::string& text) {
  return Message::Make<Payload>(1, "test", 64, Payload{text});
}

class FaultTest : public ::testing::Test {
 protected:
  SerialExecutor sim;
};

TEST_F(FaultTest, CertainLossDropsInFlightSilently) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  FaultPlan plan(7);
  plan.set_message_loss(1.0);
  net.set_fault_plan(&plan);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);

  // The sender sees success (a lost packet, not a refused connection)...
  EXPECT_TRUE(net.Send(ha, hb, Msg("lost")));
  sim.Run();

  // ...but the receiver sees nothing, and the loss is counted as a drop
  // without touching the refused-send slice.
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(plan.counters().loss_drops, 1u);
  EXPECT_EQ(net.metrics().dropped_messages, 1u);
  EXPECT_EQ(net.metrics().refused_sends, 0u);
}

TEST_F(FaultTest, ZeroLossDeliversEverything) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  FaultPlan plan(7);
  net.set_fault_plan(&plan);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  for (int i = 0; i < 20; ++i) net.Send(ha, hb, Msg("ok"));
  sim.Run();
  EXPECT_EQ(b.received.size(), 20u);
  EXPECT_EQ(plan.counters().Total(), 0u);
}

TEST_F(FaultTest, SelfSendsAreNeverFaulted) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  FaultPlan plan(7);
  plan.set_message_loss(1.0);
  plan.set_latency_spike(1.0, kSecond);
  net.set_fault_plan(&plan);
  Recorder a;
  HostId ha = net.AddHost(&a);
  net.Send(ha, ha, Msg("self"));
  sim.Run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(sim.now(), 0u);  // no spike applied either
  EXPECT_EQ(plan.counters().Total(), 0u);
}

TEST_F(FaultTest, PartitionDropsCrossGroupTrafficUntilHeal) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  FaultPlan plan(7);
  net.set_fault_plan(&plan);
  Recorder a, b, c;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  HostId hc = net.AddHost(&c);
  FaultPlan::PartitionWindow w;
  w.groups[hc] = 1;  // a, b stay in group 0
  w.start = 0;
  w.heal_time = kSecond;
  plan.AddPartitionWindow(w);

  net.Send(ha, hb, Msg("same-side"));
  net.Send(ha, hc, Msg("cross"));
  net.Send(hc, ha, Msg("cross-back"));
  sim.Run();

  EXPECT_EQ(b.received.size(), 1u);  // same group flows
  EXPECT_TRUE(c.received.empty());   // both directions blocked
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(plan.counters().partition_drops, 2u);

  sim.ScheduleAt(kDriverHost, kSecond,
                 [&] { net.Send(ha, hc, Msg("after-heal")); });
  sim.Run();
  EXPECT_EQ(c.received.size(), 1u);
}

TEST_F(FaultTest, LatencySpikeDelaysDelivery) {
  Network net(&sim, std::make_unique<ConstantLatency>(10 * kMillisecond), 1);
  FaultPlan plan(7);
  plan.set_latency_spike(1.0, 50 * kMillisecond);
  net.set_fault_plan(&plan);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.Send(ha, hb, Msg("slow"));
  sim.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(sim.now(), 60 * kMillisecond);  // model delay + spike
  EXPECT_EQ(plan.counters().latency_spikes, 1u);
}

TEST_F(FaultTest, FaultDecisionsAreDeterministicUnderSeed) {
  auto run = [this](uint64_t seed) {
    SerialExecutor local;
    Network net(&local, std::make_unique<ConstantLatency>(kMillisecond), 1);
    FaultPlan plan(seed);
    plan.set_message_loss(0.3);
    plan.set_latency_spike(0.2, 5 * kMillisecond);
    net.set_fault_plan(&plan);
    Recorder a, b;
    HostId ha = net.AddHost(&a);
    HostId hb = net.AddHost(&b);
    for (int i = 0; i < 200; ++i) net.Send(ha, hb, Msg("x"));
    local.Run();
    return std::make_tuple(b.received.size(), plan.counters().loss_drops,
                           plan.counters().latency_spikes, local.now());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<1>(run(42)), 0u);  // the plan actually dropped some
}

TEST_F(FaultTest, FaultRandomnessDoesNotPerturbLatencyStream) {
  // Same network seed, jittery latency model: delivery times must be
  // identical with and without an (all-loss-disabled) plan attached,
  // because fault decisions draw from the plan's own Rng.
  auto deliveries = [](bool with_plan) {
    SerialExecutor local;
    Network net(&local,
                std::make_unique<UniformLatency>(kMillisecond, 20 * kMillisecond),
                99);
    FaultPlan plan(1234);
    if (with_plan) net.set_fault_plan(&plan);
    Recorder a, b;
    HostId ha = net.AddHost(&a);
    HostId hb = net.AddHost(&b);
    std::vector<SimTime> times;
    for (int i = 0; i < 50; ++i) net.Send(ha, hb, Msg("x"));
    while (local.Run(1) == 1) times.push_back(local.now());
    return times;
  };
  EXPECT_EQ(deliveries(false), deliveries(true));
}

TEST_F(FaultTest, FailSlowWindowDelaysOnlyInWindowSends) {
  Network net(&sim, std::make_unique<ConstantLatency>(10 * kMillisecond), 1);
  FaultPlan plan(7);
  net.set_fault_plan(&plan);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  // b straggles for one second starting at t=100ms: +80ms per message.
  plan.AddFailSlow(hb, 100 * kMillisecond, kSecond, 80 * kMillisecond);

  std::vector<SimTime> arrivals;
  // Sent before the window opens: normal 10ms delivery.
  net.Send(ha, hb, Msg("early"));
  // Sent inside the window: slowed, even though it ARRIVES after the
  // window would close for sends (decision keys on send time only).
  sim.ScheduleAt(kDriverHost, kSecond,
                 [&] { net.Send(ha, hb, Msg("slowed")); });
  // Sent after the window: normal again.
  sim.ScheduleAt(kDriverHost, 2 * kSecond,
                 [&] { net.Send(ha, hb, Msg("late")); });
  while (sim.Run(1) == 1) {
    if (arrivals.size() < b.received.size()) arrivals.push_back(sim.now());
  }

  ASSERT_EQ(b.received.size(), 3u);
  EXPECT_EQ(arrivals[0], 10 * kMillisecond);
  EXPECT_EQ(arrivals[1], kSecond + 90 * kMillisecond);
  EXPECT_EQ(arrivals[2], 2 * kSecond + 10 * kMillisecond);
  EXPECT_EQ(plan.counters().slow_deliveries, 1u);

  CounterSet out;
  ExportNetworkCounters(net, &out);
  EXPECT_EQ(out.Value("net.fault_slow_deliveries"), 1u);
}

TEST_F(FaultTest, OverlappingFailSlowWindowsAreAdditive) {
  Network net(&sim, std::make_unique<ConstantLatency>(10 * kMillisecond), 1);
  FaultPlan plan(7);
  net.set_fault_plan(&plan);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  plan.AddFailSlow(hb, 0, kSecond, 30 * kMillisecond);
  plan.AddFailSlow(hb, 0, kSecond, 50 * kMillisecond);
  // Other hosts are untouched by b's windows.
  net.Send(ha, hb, Msg("doubly-slowed"));
  net.Send(hb, ha, Msg("reverse-unslowed"));
  sim.Run();
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(sim.now(), 90 * kMillisecond);  // 10ms wire + 30 + 50
  // One slowed delivery counted per message, not per window.
  EXPECT_EQ(plan.counters().slow_deliveries, 1u);
}

TEST_F(FaultTest, FlashCrowdJoinSpacesEvenlyInsideWindow) {
  auto events = FaultPlan::FlashCrowdJoin(10 * kSecond, 6, kMinute);
  ASSERT_EQ(events.size(), 6u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, ChurnEvent::kJoin);
    EXPECT_GE(events[i].time, 10 * kSecond);
    EXPECT_LT(events[i].time, 10 * kSecond + kMinute);
    if (i > 0) {
      EXPECT_GT(events[i].time, events[i - 1].time);
    }
  }
  // Even spacing: constant gap between consecutive arrivals.
  SimTime gap = events[1].time - events[0].time;
  for (size_t i = 2; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time - events[i - 1].time, gap);
  }
}

TEST_F(FaultTest, MassLeaveIsSimultaneous) {
  auto events = FaultPlan::MassLeave(5 * kSecond, 4);
  ASSERT_EQ(events.size(), 4u);
  for (const auto& e : events) {
    EXPECT_EQ(e.kind, ChurnEvent::kCrash);
    EXPECT_EQ(e.time, 5 * kSecond);
  }
}

TEST_F(FaultTest, SustainedChurnAlternatesAndStaysInRange) {
  auto events =
      FaultPlan::SustainedChurn(kSecond, 10 * kMinute, 6.0, 77);
  ASSERT_FALSE(events.empty());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, kSecond);
    EXPECT_LT(events[i].time, kSecond + 10 * kMinute);
    if (i > 0) {
      EXPECT_GE(events[i].time, events[i - 1].time);
    }
    // Population-preserving: joins and crashes alternate, join first.
    EXPECT_EQ(events[i].kind,
              i % 2 == 0 ? ChurnEvent::kJoin : ChurnEvent::kCrash);
  }
  // ~6 events/min over 10 min; exponential gaps, so allow slack.
  EXPECT_GT(events.size(), 20u);
  EXPECT_LT(events.size(), 180u);

  // Same seed reproduces the schedule event-for-event.
  auto again = FaultPlan::SustainedChurn(kSecond, 10 * kMinute, 6.0, 77);
  ASSERT_EQ(again.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(again[i].time, events[i].time);
    EXPECT_EQ(again[i].kind, events[i].kind);
  }
}

TEST_F(FaultTest, ExportNetworkCountersSurfacesFaultCounters) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);

  // Without a plan: traffic counters only, no fault names.
  net.Send(ha, hb, Msg("plain"));
  sim.Run();
  CounterSet bare;
  ExportNetworkCounters(net, &bare);
  EXPECT_EQ(bare.Value("net.messages"), 1u);
  EXPECT_FALSE(bare.Has("net.fault_injected_total"));

  FaultPlan plan(7);
  plan.set_message_loss(1.0);
  net.set_fault_plan(&plan);
  net.Send(ha, hb, Msg("dropped"));
  plan.CountChurn(ChurnEvent::kCrash);
  plan.CountChurn(ChurnEvent::kJoin);
  sim.Run();

  CounterSet out;
  ExportNetworkCounters(net, &out);
  EXPECT_EQ(out.Value("net.fault_loss_drops"), 1u);
  EXPECT_EQ(out.Value("net.fault_churn_crashes"), 1u);
  EXPECT_EQ(out.Value("net.fault_churn_joins"), 1u);
  EXPECT_EQ(out.Value("net.fault_injected_total"), 3u);
  EXPECT_EQ(out.Value("net.dropped_messages"), 1u);
  EXPECT_EQ(out.Value("net.refused_sends"), 0u);
}

TEST_F(FaultTest, PartitionWindowDropsOnlyInsideItsSchedule) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  FaultPlan plan(7);
  net.set_fault_plan(&plan);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  FaultPlan::PartitionWindow w;
  w.groups[hb] = 1;  // a stays in group 0
  w.start = 100 * kMillisecond;
  w.heal_time = kSecond;
  plan.AddPartitionWindow(w);

  // Before the window opens, inside it, and at/after the heal time —
  // keyed purely on SEND time, so the schedule is backend-deterministic.
  net.Send(ha, hb, Msg("before"));
  sim.ScheduleAt(kDriverHost, 500 * kMillisecond,
                 [&] { net.Send(ha, hb, Msg("split")); });
  sim.ScheduleAt(kDriverHost, kSecond,
                 [&] { net.Send(ha, hb, Msg("healed")); });
  sim.Run();

  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].second, "before");
  EXPECT_EQ(b.received[1].second, "healed");
  EXPECT_EQ(plan.counters().partition_drops, 1u);
}

TEST_F(FaultTest, PerGroupHealReleasesOnlyThatGroup) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  FaultPlan plan(7);
  net.set_fault_plan(&plan);
  Recorder a, b, c;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  HostId hc = net.AddHost(&c);
  // Two splits side by side: b's heals first, c's later.
  FaultPlan::PartitionWindow b_split;
  b_split.groups[hb] = 1;
  b_split.heal_time = kSecond;
  plan.AddPartitionWindow(b_split);
  FaultPlan::PartitionWindow c_split;
  c_split.groups[hc] = 2;
  c_split.heal_time = 2 * kSecond;
  plan.AddPartitionWindow(c_split);

  net.Send(ha, hb, Msg("cut"));
  sim.Run();
  EXPECT_TRUE(b.received.empty());

  // b rejoins the majority; c stays cut off.
  sim.ScheduleAt(kDriverHost, kSecond, [&] {
    net.Send(ha, hb, Msg("rejoined"));
    net.Send(ha, hc, Msg("still-cut"));
  });
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(c.received.empty());

  // Later everything flows.
  sim.ScheduleAt(kDriverHost, 2 * kSecond,
                 [&] { net.Send(ha, hc, Msg("all-healed")); });
  sim.Run();
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(plan.counters().partition_drops, 2u);
}

TEST_F(FaultTest, OneWayPartitionWindowIsAsymmetric) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  FaultPlan plan(7);
  net.set_fault_plan(&plan);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  FaultPlan::PartitionWindow w;
  w.groups[hb] = 1;
  w.start = 0;
  w.heal_time = kSecond;
  w.one_way.push_back({0, 1});  // group 0 → group 1 drops; reverse flows
  plan.AddPartitionWindow(w);

  net.Send(ha, hb, Msg("swallowed"));
  net.Send(hb, ha, Msg("heard"));
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(plan.counters().partition_drops, 1u);
}

TEST_F(FaultTest, CrashRestartBuilderPairsEventsAndCountsRestarts) {
  auto events = FaultPlan::CrashRestart(2 * kSecond, 10 * kSecond, 3);
  ASSERT_EQ(events.size(), 6u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].kind, ChurnEvent::kCrash);
    EXPECT_EQ(events[i].time, 2 * kSecond);
  }
  for (size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(events[i].kind, ChurnEvent::kRestart);
    EXPECT_EQ(events[i].time, 10 * kSecond);
  }

  FaultPlan plan(7);
  for (const auto& e : events) plan.CountChurn(e.kind);
  EXPECT_EQ(plan.counters().churn_crashes, 3u);
  EXPECT_EQ(plan.counters().churn_restarts, 3u);
  EXPECT_EQ(plan.counters().Total(), 6u);

  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  net.set_fault_plan(&plan);
  CounterSet out;
  ExportNetworkCounters(net, &out);
  EXPECT_EQ(out.Value("net.fault_churn_restarts"), 3u);
}

TEST_F(FaultTest, RefusedSendIsAnAdditiveSliceOfDrops) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  FaultPlan plan(7);
  net.set_fault_plan(&plan);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.SetHostUp(hb, false);
  EXPECT_FALSE(net.Send(ha, hb, Msg("refused")));
  EXPECT_EQ(net.metrics().dropped_messages, 1u);
  EXPECT_EQ(net.metrics().refused_sends, 1u);
  // A refused send is a transport outcome, not an injected fault.
  EXPECT_EQ(plan.counters().Total(), 0u);
}

}  // namespace
}  // namespace pierstack::sim
