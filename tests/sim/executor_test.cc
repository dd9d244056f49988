// Executor seam backends: the scheduling/cancel contract both backends
// honor, SerialExecutor's canonical (time, origin, origin_seq) ordering,
// ShardedExecutor's barrier-epoch equivalence to it, and MakeEnvExecutor's
// env-driven backend selection.
#include "sim/executor.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/shard.h"

namespace pierstack::sim {
namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// --- The Executor contract, on both backends --------------------------------

/// Runs each case on the serial reference and on a 4-shard
/// ShardedExecutor. Events sit on one host, spaced at least a lookahead
/// apart, so the sharded backend's epoch-granular Run(limit) counts
/// exactly like the serial one.
class ExecutorContractTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr HostId kHost = 1;

  std::unique_ptr<Executor> Make() const {
    if (GetParam() <= 1) return std::make_unique<SerialExecutor>();
    return std::make_unique<ShardedExecutor>(
        ShardedExecutor::Options{GetParam(), kMillisecond});
  }
};

TEST_P(ExecutorContractTest, RunsEventsInTimeOrder) {
  auto ex = Make();
  std::vector<int> order;
  ex->ScheduleAt(kHost, 30 * kMillisecond, [&] { order.push_back(3); });
  ex->ScheduleAt(kHost, 10 * kMillisecond, [&] { order.push_back(1); });
  ex->ScheduleAt(kHost, 20 * kMillisecond, [&] { order.push_back(2); });
  EXPECT_EQ(ex->Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex->now(), 30 * kMillisecond);
}

TEST_P(ExecutorContractTest, ScheduleAfterIsRelativeToTheHandlersTime) {
  auto ex = Make();
  SimTime seen = 0;
  ex->ScheduleAt(kHost, 100 * kMillisecond, [&] {
    ex->ScheduleAfter(kHost, 50 * kMillisecond, [&] { seen = ex->now(); });
  });
  ex->Run();
  EXPECT_EQ(seen, 150 * kMillisecond);
}

TEST_P(ExecutorContractTest, EventsCanScheduleMoreEvents) {
  auto ex = Make();
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) ex->ScheduleAfter(kHost, kMillisecond, chain);
  };
  ex->ScheduleAt(kHost, 0, chain);
  ex->Run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(ex->now(), 9 * kMillisecond);
}

TEST_P(ExecutorContractTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  auto ex = Make();
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    ex->ScheduleAt(kHost, t * kMillisecond,
                   [&fired, t] { fired.push_back(t); });
  }
  EXPECT_EQ(ex->RunUntil(25 * kMillisecond), 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(ex->now(), 25 * kMillisecond);
  EXPECT_EQ(ex->RunUntil(100 * kMillisecond), 2u);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(ex->now(), 100 * kMillisecond);
}

TEST_P(ExecutorContractTest, RunUntilIncludesBoundaryEvents) {
  auto ex = Make();
  bool ran = false;
  ex->ScheduleAt(kHost, 25 * kMillisecond, [&] { ran = true; });
  ex->RunUntil(25 * kMillisecond);
  EXPECT_TRUE(ran);
}

TEST_P(ExecutorContractTest, RunForIsRelative) {
  auto ex = Make();
  ex->ScheduleAt(kHost, 5 * kMillisecond, [] {});
  ex->RunUntil(10 * kMillisecond);
  int count = 0;
  ex->ScheduleAfter(kHost, 5 * kMillisecond, [&] { ++count; });
  ex->ScheduleAfter(kHost, 15 * kMillisecond, [&] { ++count; });
  ex->RunFor(10 * kMillisecond);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(ex->now(), 20 * kMillisecond);
}

TEST_P(ExecutorContractTest, RunWithLimitStopsEarly) {
  auto ex = Make();
  int count = 0;
  for (SimTime i = 1; i <= 10; ++i) {
    ex->ScheduleAt(kHost, i * kMillisecond, [&] { ++count; });
  }
  EXPECT_EQ(ex->Run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(ex->pending(), 7u);
  EXPECT_EQ(ex->Run(1), 1u);
  EXPECT_EQ(ex->pending(), 6u);
}

TEST_P(ExecutorContractTest, ExecutedCountSkipsCancelledEvents) {
  auto ex = Make();
  ex->ScheduleAt(kHost, 1 * kMillisecond, [] {});
  ex->ScheduleAt(kHost, 2 * kMillisecond, [] {});
  EventId id = ex->ScheduleAt(kHost, 3 * kMillisecond, [] {});
  EXPECT_TRUE(ex->Cancel(id));
  EXPECT_EQ(ex->pending(), 2u);
  ex->Run();
  EXPECT_EQ(ex->events_executed(), 2u);
  EXPECT_EQ(ex->pending(), 0u);
}

TEST_P(ExecutorContractTest, CancelledEventDoesNotAdvanceClock) {
  auto ex = Make();
  EventId id = ex->ScheduleAt(kHost, 50 * kMillisecond, [] {});
  ex->ScheduleAt(kHost, 10 * kMillisecond, [] {});
  EXPECT_TRUE(ex->Cancel(id));
  ex->Run();
  EXPECT_EQ(ex->now(), 10 * kMillisecond);
}

TEST_P(ExecutorContractTest, CancelAfterRunFailsAndKeepsPendingExact) {
  auto ex = Make();
  bool later_ran = false;
  EventId done = ex->ScheduleAt(kHost, 1 * kMillisecond, [] {});
  ex->ScheduleAt(kHost, 5 * kMillisecond, [&] { later_ran = true; });
  ex->RunUntil(2 * kMillisecond);
  // The first event already ran: nothing to cancel, and the still-queued
  // second event must keep counting as pending.
  EXPECT_FALSE(ex->Cancel(done));
  EXPECT_EQ(ex->pending(), 1u);
  EXPECT_EQ(ex->Run(), 1u);
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(ex->events_executed(), 2u);
}

TEST_P(ExecutorContractTest, CancelOfUnknownIdFails) {
  auto ex = Make();
  EventId issued = ex->ScheduleAt(kHost, kMillisecond, [] {});
  EXPECT_FALSE(ex->Cancel(kInvalidEventId));
  EXPECT_FALSE(ex->Cancel(9999));
  EXPECT_FALSE(ex->Cancel(issued + (EventId{1} << 20)));
  EXPECT_EQ(ex->pending(), 1u);
  EXPECT_TRUE(ex->Cancel(issued));
  EXPECT_FALSE(ex->Cancel(issued));
  EXPECT_EQ(ex->pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ExecutorContractTest, ::testing::Values(1u, 4u),
    [](const ::testing::TestParamInfo<uint32_t>& info) {
      return info.param <= 1 ? std::string("Serial")
                             : "Sharded" + std::to_string(info.param);
    });

// --- SerialExecutor's canonical order ---------------------------------------

TEST(SerialExecutorTest, DriverScheduledEqualTimeRunsFifo) {
  SerialExecutor ex;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    ex.ScheduleAt(static_cast<HostId>(3 - i), 10 * kMillisecond,
                  [&order, i] { order.push_back(i); });
  }
  ex.Run();
  // All four share the driver origin, so the per-origin seq (= schedule
  // order) breaks the tie — not the owner host id.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ex.now(), 10 * kMillisecond);
  EXPECT_EQ(ex.events_executed(), 4u);
}

TEST(SerialExecutorTest, EqualTimeChildrenOrderByOrigin) {
  SerialExecutor ex;
  std::vector<HostId> order;
  // Host 2's handler runs before host 1's (driver FIFO at t=10ms), but
  // their equal-time children on host 0 must order by *origin*: 1 < 2.
  for (HostId h : {HostId{2}, HostId{1}}) {
    ex.ScheduleAt(h, 10 * kMillisecond, [&ex, &order, h] {
      ex.ScheduleAfter(0, 10 * kMillisecond, [&order, h] {
        order.push_back(h);
      });
    });
  }
  ex.Run();
  EXPECT_EQ(order, (std::vector<HostId>{1, 2}));
}

TEST(SerialExecutorTest, DriverOriginSortsAfterHostsAtEqualTime) {
  SerialExecutor ex;
  std::vector<std::string> order;
  // Driver-origin event at 10ms, scheduled first.
  ex.ScheduleAt(kDriverHost, 10 * kMillisecond,
                [&order] { order.push_back("driver"); });
  // Host 3 at 5ms schedules a child for the same 10ms instant.
  ex.ScheduleAt(3, 5 * kMillisecond, [&ex, &order] {
    ex.ScheduleAfter(3, 5 * kMillisecond,
                     [&order] { order.push_back("host"); });
  });
  ex.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"host", "driver"}));
}

TEST(SerialExecutorTest, CancelIsOneShotAndSkipsExecution) {
  SerialExecutor ex;
  bool ran = false;
  EventId id = ex.ScheduleAt(1, kMillisecond, [&ran] { ran = true; });
  EXPECT_EQ(ex.pending(), 1u);
  EXPECT_TRUE(ex.Cancel(id));
  EXPECT_FALSE(ex.Cancel(id));
  EXPECT_EQ(ex.pending(), 0u);
  EXPECT_EQ(ex.Run(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_FALSE(ex.Cancel(kInvalidEventId));
}

TEST(SerialExecutorTest, RunUntilExecutesDueAndSettlesClock) {
  SerialExecutor ex;
  int ran = 0;
  ex.ScheduleAt(0, 10 * kMillisecond, [&ran] { ++ran; });
  ex.ScheduleAt(0, 100 * kMillisecond, [&ran] { ++ran; });
  EXPECT_EQ(ex.RunUntil(50 * kMillisecond), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(ex.now(), 50 * kMillisecond);
  EXPECT_EQ(ex.pending(), 1u);
  ex.Run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(ex.now(), 100 * kMillisecond);
}

// A deterministic multi-host token workload: every host's digest folds in
// the times of its fires, and hops carry tokens across hosts (and thus
// shards) with delays >= the lookahead. Any backend honoring the canonical
// per-host event order must produce identical digests, fire counts, and
// mid-run driver snapshots.
struct TokenWorkload {
  static constexpr SimTime kLookahead = kMillisecond;
  static constexpr size_t kHosts = 12;
  static constexpr SimTime kEnd = 200 * kMillisecond;

  explicit TokenWorkload(Executor* e) : ex(e) {}

  Executor* ex;
  std::array<uint64_t, kHosts> digest{};
  std::array<uint64_t, kHosts> fires{};
  std::vector<std::pair<SimTime, uint64_t>> snapshots;

  void Fire(HostId h) {
    SimTime t = ex->now();
    digest[h] = Mix64(digest[h] ^ (t * 1315423911ull + h));
    ++fires[h];
    if (t >= kEnd) return;
    HostId next = static_cast<HostId>(Mix64(digest[h]) % kHosts);
    SimTime delay = kLookahead * (1 + Mix64(digest[h] ^ t) % 3);
    ex->ScheduleAfter(next, delay, [this, next] { Fire(next); });
  }

  void Run() {
    for (HostId h = 0; h < kHosts; ++h) {
      // Deliberately off the lookahead grid.
      ex->ScheduleAt(h, kLookahead + 137 * h, [this, h] { Fire(h); });
    }
    for (int i = 1; i <= 3; ++i) {
      ex->ScheduleAt(kDriverHost, i * 50 * kMillisecond, [this] {
        uint64_t acc = 0;
        for (size_t h = 0; h < kHosts; ++h) acc = Mix64(acc ^ digest[h]);
        snapshots.emplace_back(ex->now(), acc);
      });
    }
    ex->Run();
  }
};

TEST(ShardedExecutorTest, TokenWorkloadMatchesSerialBackend) {
  SerialExecutor serial;
  TokenWorkload reference(&serial);
  reference.Run();
  ASSERT_GT(serial.events_executed(), 100u);  // not vacuous

  for (uint32_t shards : {2u, 4u}) {
    ShardedExecutor ex({shards, TokenWorkload::kLookahead});
    TokenWorkload w(&ex);
    w.Run();
    EXPECT_EQ(w.digest, reference.digest) << shards << " shards";
    EXPECT_EQ(w.fires, reference.fires) << shards << " shards";
    EXPECT_EQ(w.snapshots, reference.snapshots) << shards << " shards";
    EXPECT_EQ(ex.events_executed(), serial.events_executed());
    EXPECT_EQ(ex.now(), serial.now());
  }
}

TEST(ShardedExecutorTest, EqualTimeChildrenOrderByOriginAcrossShards) {
  auto run = [](Executor& ex) {
    auto order = std::make_shared<std::vector<HostId>>();
    // Hosts 2 (shard 0) and 1 (shard 1) fire concurrently at 10ms; both
    // schedule a child on host 0 (shard 0) for the same later instant —
    // host 1's travels through the cross-shard mailbox, host 2's is a
    // local push. Canonical order: origin 1 before origin 2.
    for (HostId h : {HostId{2}, HostId{1}}) {
      ex.ScheduleAt(h, 10 * kMillisecond, [&ex, order, h] {
        ex.ScheduleAfter(0, 10 * kMillisecond, [order, h] {
          order->push_back(h);
        });
      });
    }
    ex.Run();
    return *order;
  };
  SerialExecutor serial;
  std::vector<HostId> want = run(serial);
  ASSERT_EQ(want, (std::vector<HostId>{1, 2}));
  ShardedExecutor sharded({2, kMillisecond});
  EXPECT_EQ(run(sharded), want);
}

TEST(ShardedExecutorTest, DriverContextCancelReachesAnyShard) {
  ShardedExecutor ex({2, kMillisecond});
  bool ran = false;
  EventId a = ex.ScheduleAt(3, 5 * kMillisecond, [&ran] { ran = true; });
  EventId b = ex.ScheduleAt(kDriverHost, 5 * kMillisecond,
                            [&ran] { ran = true; });
  EXPECT_EQ(ex.pending(), 2u);
  EXPECT_TRUE(ex.Cancel(a));
  EXPECT_TRUE(ex.Cancel(b));
  EXPECT_FALSE(ex.Cancel(a));
  EXPECT_EQ(ex.pending(), 0u);
  EXPECT_EQ(ex.Run(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(ex.events_executed(), 0u);
}

TEST(ShardedExecutorTest, OwnerShardCancelsItsOwnTimer) {
  ShardedExecutor ex({2, kMillisecond});
  bool fired = false;
  // The timeout pattern: a host arms a timer for itself, then cancels it
  // from a later event of its own — all on the owning shard.
  auto id = std::make_shared<EventId>(kInvalidEventId);
  ex.ScheduleAt(1, kMillisecond, [&ex, id, &fired] {
    *id = ex.ScheduleAfter(1, 10 * kMillisecond, [&fired] { fired = true; });
  });
  ex.ScheduleAt(1, 2 * kMillisecond,
                [&ex, id] { EXPECT_TRUE(ex.Cancel(*id)); });
  ex.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(ex.events_executed(), 2u);
}

TEST(ShardedExecutorTest, RunUntilAdvancesEveryClock) {
  ShardedExecutor ex({2, kMillisecond});
  int ran = 0;
  ex.ScheduleAt(0, kMillisecond, [&ran] { ++ran; });
  ex.ScheduleAt(1, 100 * kMillisecond, [&ran] { ++ran; });
  EXPECT_EQ(ex.RunUntil(50 * kMillisecond), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(ex.now(), 50 * kMillisecond);
  EXPECT_EQ(ex.pending(), 1u);
  ex.Run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(ex.now(), 100 * kMillisecond);
}

TEST(ShardedExecutorTest, ReportsShardCountAndDriverSlab) {
  ShardedExecutor ex({3, kMillisecond});
  EXPECT_EQ(ex.shard_count(), 3u);
  // Driver context gets the extra slab past the workers'.
  EXPECT_EQ(ex.CurrentSlab(), 3u);
  for (HostId h = 0; h < 6; ++h) EXPECT_LT(ex.ShardOf(h), 3u);
}

TEST(MakeEnvExecutorTest, SelectsBackendFromEnv) {
  const char* saved = std::getenv("PIERSTACK_SHARDS");
  std::string saved_value = saved ? saved : "";

  unsetenv("PIERSTACK_SHARDS");
  EXPECT_EQ(MakeEnvExecutor(kMillisecond)->shard_count(), 1u);
  setenv("PIERSTACK_SHARDS", "4", 1);
  EXPECT_EQ(MakeEnvExecutor(kMillisecond)->shard_count(), 4u);
  // No positive lookahead, no window bound: serial fallback.
  EXPECT_EQ(MakeEnvExecutor(0)->shard_count(), 1u);
  setenv("PIERSTACK_SHARDS", "1", 1);
  EXPECT_EQ(MakeEnvExecutor(kMillisecond)->shard_count(), 1u);

  if (saved) {
    setenv("PIERSTACK_SHARDS", saved_value.c_str(), 1);
  } else {
    unsetenv("PIERSTACK_SHARDS");
  }
}

}  // namespace
}  // namespace pierstack::sim
