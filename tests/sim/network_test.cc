#include "sim/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace pierstack::sim {
namespace {

struct Payload {
  std::string text;
};

/// Test host that records deliveries.
class Recorder : public Host {
 public:
  void HandleMessage(HostId from, const Message& msg) override {
    received.push_back({from, msg.as<Payload>().text});
  }
  std::vector<std::pair<HostId, std::string>> received;
};

class NetworkTest : public ::testing::Test {
 protected:
  SerialExecutor sim;
};

TEST_F(NetworkTest, DeliversWithConstantLatency) {
  Network net(&sim, std::make_unique<ConstantLatency>(10 * kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.Send(ha, hb, Message::Make<Payload>(1, "test", 100, Payload{"hi"}));
  EXPECT_TRUE(b.received.empty());
  sim.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, ha);
  EXPECT_EQ(b.received[0].second, "hi");
  EXPECT_EQ(sim.now(), 10 * kMillisecond);
}

TEST_F(NetworkTest, SelfSendIsImmediateButAsync) {
  Network net(&sim, std::make_unique<ConstantLatency>(10 * kMillisecond), 1);
  Recorder a;
  HostId ha = net.AddHost(&a);
  net.Send(ha, ha, Message::Make<Payload>(1, "test", 10, Payload{"self"}));
  sim.Run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(sim.now(), 0u);
}

TEST_F(NetworkTest, MetricsCountMessagesAndBytes) {
  Network net(&sim, nullptr, 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.Send(ha, hb, Message::Make<Payload>(1, "query", 100, Payload{"q"}));
  net.Send(ha, hb, Message::Make<Payload>(1, "query", 50, Payload{"q"}));
  net.Send(hb, ha, Message::Make<Payload>(1, "reply", 25, Payload{"r"}));
  sim.Run();
  EXPECT_EQ(net.metrics().total.messages, 3u);
  EXPECT_EQ(net.metrics().total.bytes, 175u);
  EXPECT_EQ(net.metrics().by_tag.at("query").messages, 2u);
  EXPECT_EQ(net.metrics().by_tag.at("query").bytes, 150u);
  EXPECT_EQ(net.metrics().by_tag.at("reply").bytes, 25u);

  CounterSet out;
  ExportNetworkCounters(net, &out);
  EXPECT_EQ(out.Value("net.tag.query.messages"), 2u);
  EXPECT_EQ(out.Value("net.tag.query.bytes"), 150u);
  EXPECT_EQ(out.Value("net.tag.reply.messages"), 1u);
  EXPECT_EQ(out.Value("net.tag.reply.bytes"), 25u);
  EXPECT_FALSE(out.Has("net.tag.x.messages"));
}

TEST_F(NetworkTest, MetricsReset) {
  Network net(&sim, nullptr, 1);
  Recorder a;
  HostId ha = net.AddHost(&a);
  net.Send(ha, ha, Message::Make<Payload>(1, "x", 10, Payload{}));
  sim.Run();
  net.metrics().Reset();
  EXPECT_EQ(net.metrics().total.messages, 0u);
  EXPECT_TRUE(net.metrics().by_tag.empty());
}

TEST_F(NetworkTest, DownHostDropsMessages) {
  Network net(&sim, nullptr, 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.SetHostUp(hb, false);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 10, Payload{"drop"}));
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.metrics().dropped_messages, 1u);
  net.SetHostUp(hb, true);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 10, Payload{"ok"}));
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, HostGoingDownMidFlightDropsDelivery) {
  Network net(&sim, std::make_unique<ConstantLatency>(5 * kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 10, Payload{"late"}));
  sim.ScheduleAt(kDriverHost, 1 * kMillisecond,
                 [&] { net.SetHostUp(hb, false); });
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.metrics().dropped_messages, 1u);
}

TEST_F(NetworkTest, UniformLatencyWithinBounds) {
  auto model = std::make_unique<UniformLatency>(10, 20);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    SimTime d = model->Latency(0, 1, 0, &rng);
    EXPECT_GE(d, 10u);
    EXPECT_LE(d, 20u);
  }
}

TEST_F(NetworkTest, CoordinateLatencyDeterministicPerPair) {
  CoordinateLatency::Options opts;
  opts.jitter_mean = 0;
  opts.per_kb = 0;
  CoordinateLatency model(opts, 7);
  Rng rng(1);
  SimTime d1 = model.Latency(0, 1, 0, &rng);
  SimTime d2 = model.Latency(0, 1, 0, &rng);
  EXPECT_EQ(d1, d2);
  EXPECT_GE(d1, opts.base);
  EXPECT_LE(d1, opts.base + opts.max_distance);
}

TEST_F(NetworkTest, CoordinateLatencyChargesBytes) {
  CoordinateLatency::Options opts;
  opts.jitter_mean = 0;
  opts.max_distance = 0;
  opts.per_kb = kMillisecond;
  CoordinateLatency model(opts, 7);
  Rng rng(1);
  SimTime small = model.Latency(0, 1, 100, &rng);
  SimTime big = model.Latency(0, 1, 10 * 1024, &rng);
  EXPECT_EQ(big - small, 10 * kMillisecond);
}

TEST_F(NetworkTest, DestinationLoadTracksInFlightAndSettles) {
  Network net(&sim, std::make_unique<ConstantLatency>(10 * kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 100, Payload{"1"}));
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 50, Payload{"2"}));
  DestinationLoad mid = net.LoadOf(hb);
  EXPECT_EQ(mid.in_flight_messages, 2u);
  EXPECT_EQ(mid.in_flight_bytes, 150u);
  EXPECT_EQ(mid.peak_in_flight_bytes, 150u);
  EXPECT_EQ(mid.smoothed_latency, 0u);  // nothing delivered yet
  sim.Run();
  DestinationLoad after = net.LoadOf(hb);
  EXPECT_EQ(after.in_flight_messages, 0u);
  EXPECT_EQ(after.in_flight_bytes, 0u);
  EXPECT_EQ(after.peak_in_flight_bytes, 150u);  // watermark survives
  EXPECT_EQ(after.smoothed_latency, 10 * kMillisecond);
  net.ResetLoadWatermarks();
  EXPECT_EQ(net.LoadOf(hb).peak_in_flight_bytes, 0u);
  // The sender's own load is untouched by its sends.
  EXPECT_EQ(net.LoadOf(ha).in_flight_messages, 0u);
}

TEST_F(NetworkTest, InFlightSettlesEvenWhenHostDiesMidFlight) {
  Network net(&sim, std::make_unique<ConstantLatency>(5 * kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 64, Payload{"doomed"}));
  sim.ScheduleAt(kDriverHost, 1 * kMillisecond,
                 [&] { net.SetHostUp(hb, false); });
  sim.Run();
  EXPECT_EQ(net.LoadOf(hb).in_flight_messages, 0u);
  EXPECT_EQ(net.LoadOf(hb).in_flight_bytes, 0u);
}

TEST_F(NetworkTest, SmoothedLatencyIsAnEwma) {
  // Processing delay shifts per-message delivery delay; the EWMA follows
  // with 1/8 gain.
  Network net(&sim, std::make_unique<ConstantLatency>(8 * kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 1, Payload{}));
  sim.Run();
  EXPECT_EQ(net.LoadOf(hb).smoothed_latency, 8 * kMillisecond);
  net.SetProcessingDelay(hb, 8 * kMillisecond);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 1, Payload{}));
  sim.Run();
  // (7*8ms + 16ms) / 8 = 9ms.
  EXPECT_EQ(net.LoadOf(hb).smoothed_latency, 9 * kMillisecond);
}

TEST_F(NetworkTest, SmoothedLatencyDecaysWhileIdle) {
  // One historical burst must not bias adaptive policies forever: the
  // latency EWMA halves per 5 s half-life of idleness and reads as
  // "unmeasured" (0) once fully decayed.
  Network net(&sim, std::make_unique<ConstantLatency>(8 * kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 1, Payload{}));
  sim.Run();
  EXPECT_EQ(net.LoadOf(hb).smoothed_latency, 8 * kMillisecond);
  // Within the first half-life the signal is untouched.
  sim.RunFor(4999 * kMillisecond);
  EXPECT_EQ(net.LoadOf(hb).smoothed_latency, 8 * kMillisecond);
  // One full half-life past the last update: halved.
  sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(net.LoadOf(hb).smoothed_latency, 4 * kMillisecond);
  sim.RunFor(5 * kSecond);
  EXPECT_EQ(net.LoadOf(hb).smoothed_latency, 2 * kMillisecond);
  // Long idle: fully decayed to the unmeasured baseline.
  sim.RunFor(60 * kSecond);
  EXPECT_EQ(net.LoadOf(hb).smoothed_latency, 0u);
}

TEST_F(NetworkTest, PostIdleObservationReseedsDecayedEwma) {
  // The stored EWMA is decayed to now BEFORE folding in a new observation,
  // so a fresh delivery after a long idle reseeds the signal instead of
  // being averaged against stale history.
  Network net(&sim, std::make_unique<ConstantLatency>(8 * kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.SetProcessingDelay(hb, 72 * kMillisecond);  // a slow burst: 80ms
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 1, Payload{}));
  sim.Run();
  EXPECT_EQ(net.LoadOf(hb).smoothed_latency, 80 * kMillisecond);
  // The burst ends and the host recovers; two minutes (24 half-lives)
  // later one fast message measures the true current latency.
  net.SetProcessingDelay(hb, 0);
  sim.RunFor(2 * kMinute);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 1, Payload{}));
  sim.Run();
  EXPECT_EQ(net.LoadOf(hb).smoothed_latency, 8 * kMillisecond);
}

TEST_F(NetworkTest, ProcessingDelayPostponesDelivery) {
  Network net(&sim, std::make_unique<ConstantLatency>(10 * kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.SetProcessingDelay(hb, 30 * kMillisecond);
  net.Send(ha, hb, Message::Make<Payload>(1, "x", 1, Payload{"slow"}));
  sim.RunUntil(39 * kMillisecond);
  EXPECT_TRUE(b.received.empty());
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(sim.now(), 40 * kMillisecond);
  // The slow host's inbound queue held the message the whole time.
  EXPECT_EQ(net.LoadOf(hb).peak_in_flight_bytes, 1u);
}

TEST_F(NetworkTest, MessagesOrderedPerLinkWithEqualLatency) {
  Network net(&sim, std::make_unique<ConstantLatency>(kMillisecond), 1);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  for (int i = 0; i < 5; ++i) {
    net.Send(ha, hb,
             Message::Make<Payload>(1, "x", 1, Payload{std::to_string(i)}));
  }
  sim.Run();
  ASSERT_EQ(b.received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.received[static_cast<size_t>(i)].second, std::to_string(i));
  }
}

}  // namespace
}  // namespace pierstack::sim
