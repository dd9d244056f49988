// Executor seam backends: the scheduling/cancel contract both backends
// honor, SerialExecutor's canonical (time, origin, origin_seq) ordering,
// ShardedExecutor's barrier-epoch equivalence to it, a seeded differential
// test of the canonical queue on both, and MakeEnvExecutor's env-driven
// backend selection.
#include "sim/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
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

// Recycled storage: an event's slot is reused once its key has left the
// queue, and the handle's generation keeps a stale handle off the new
// occupant. Both handle layouts (serial: slot in bits 0..23, generation in
// 24..55; sharded: the same shifted up past an 8-bit shard tag) identify
// the slot (and shard) by bits 0..23 in these one-host cases, and hold
// generation bits in 32..55.
constexpr EventId kLowBits = (EventId{1} << 24) - 1;
constexpr EventId kGenerationByte = EventId{0xFF} << 40;

TEST_P(ExecutorContractTest, StaleHandleMissesTheSlotsNextOccupant) {
  auto ex = Make();
  bool b_ran = false;
  EventId a = ex->ScheduleAt(kHost, 1 * kMillisecond, [] {});
  ex->RunUntil(2 * kMillisecond);
  EventId b = ex->ScheduleAt(kHost, 5 * kMillisecond, [&] { b_ran = true; });
  // The queue held only A, so B took A's freed slot under a new generation.
  EXPECT_EQ(a & kLowBits, b & kLowBits);
  EXPECT_NE(a, b);
  EXPECT_FALSE(ex->Cancel(a));
  EXPECT_EQ(ex->pending(), 1u);
  EXPECT_EQ(ex->Run(), 1u);
  EXPECT_TRUE(b_ran);
  EXPECT_EQ(ex->events_executed(), 2u);
}

TEST_P(ExecutorContractTest, CancelledKeyFreesItsSlotOnlyWhenItSurfaces) {
  auto ex = Make();
  std::vector<std::pair<int, SimTime>> fired;
  EventId a = ex->ScheduleAt(kHost, 10 * kMillisecond,
                             [&] { fired.emplace_back(0, ex->now()); });
  EXPECT_TRUE(ex->Cancel(a));
  // A's key is still queued, so its slot is not free yet: B1 must land in
  // another slot and A's cancelled key must not run B1's closure.
  EventId b1 = ex->ScheduleAt(kHost, 20 * kMillisecond,
                              [&] { fired.emplace_back(1, ex->now()); });
  EXPECT_NE(a & kLowBits, b1 & kLowBits);
  EXPECT_EQ(ex->pending(), 1u);
  EXPECT_EQ(ex->RunUntil(15 * kMillisecond), 0u);
  // A's key surfaced and freed its slot; B2 reuses it.
  EventId b2 = ex->ScheduleAt(kHost, 30 * kMillisecond,
                              [&] { fired.emplace_back(2, ex->now()); });
  EXPECT_EQ(a & kLowBits, b2 & kLowBits);
  EXPECT_FALSE(ex->Cancel(a));
  EXPECT_EQ(ex->pending(), 2u);
  EXPECT_EQ(ex->events_executed(), 0u);
  EXPECT_EQ(ex->Run(), 2u);
  EXPECT_EQ(fired, (std::vector<std::pair<int, SimTime>>{
                       {1, 20 * kMillisecond}, {2, 30 * kMillisecond}}));
  EXPECT_EQ(ex->pending(), 0u);
  EXPECT_EQ(ex->events_executed(), 2u);
}

TEST_P(ExecutorContractTest, HandleWithAlteredGenerationIsRefused) {
  auto ex = Make();
  EventId a = ex->ScheduleAt(kHost, kMillisecond, [] {});
  EXPECT_FALSE(ex->Cancel(a ^ kGenerationByte));
  EXPECT_FALSE(ex->Cancel(a ^ (EventId{1} << 32)));
  EXPECT_FALSE(ex->Cancel(a + (EventId{1} << 40)));
  EXPECT_EQ(ex->pending(), 1u);
  EXPECT_TRUE(ex->Cancel(a));
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

TEST(ShardedExecutorTest, DriverEventRunsBeforeLaterKeysOfItsInstant) {
  // D is scheduled first, so at their shared instant its key sorts before
  // H's: D's handler must still find H pending. A parallel phase that ran
  // the shards through D's instant would run H first.
  auto run = [](Executor& ex) {
    EventId h = kInvalidEventId;
    bool cancelled = false, h_ran = false;
    ex.ScheduleAt(kDriverHost, 5 * kMillisecond,
                  [&] { cancelled = ex.Cancel(h); });
    h = ex.ScheduleAt(3, 5 * kMillisecond, [&] { h_ran = true; });
    ex.Run();
    EXPECT_TRUE(cancelled);
    EXPECT_FALSE(h_ran);
    EXPECT_EQ(ex.events_executed(), 1u);
  };
  SerialExecutor serial;
  run(serial);
  for (uint32_t shards : {2u, 4u}) {
    ShardedExecutor sharded({shards, kMillisecond});
    run(sharded);
  }
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

// --- Differential test of the canonical queue ------------------------------

/// Random schedule and cancel steps, issued from driver code, from
/// driver-owned events and from the handlers of 8 hosts, interleaved with
/// random RunUntil steps. Each event is recorded with the canonical key it
/// must get: its scheduling context, and that context's schedule count as
/// the origin seq. Every new key sorts after every executed one (host
/// children are always delayed, driver children carry the largest origin),
/// so the reference order is simply the never-cancelled records sorted by
/// (time, origin, origin_seq).
///
/// Each context draws from its own random stream and reads only state it
/// owns (the driver runs exclusively and may read all), so both backends
/// make identical choices. Hosts cancel only their own timers; the driver
/// cancels anything either backend hands a handle for (its own schedules
/// and host timers). Times sit on a half-lookahead grid so equal-time keys
/// are common.
class QueueDifferential {
 public:
  static constexpr HostId kHosts = 8;
  static constexpr size_t kDriverCtx = kHosts;  ///< Context of kDriverHost.
  static constexpr SimTime kLookahead = kMillisecond;
  static constexpr SimTime kGrid = kLookahead / 2;

  struct Rec {
    SimTime time = 0;
    HostId origin = kDriverHost;
    uint64_t origin_seq = 0;
    HostId owner = kDriverHost;
    EventId handle = kInvalidEventId;
    bool cancelled = false;  ///< A Cancel of it returned true.
    bool ran = false;
  };
  using Key = std::tuple<SimTime, HostId, uint64_t, HostId>;

  QueueDifferential(Executor* ex, uint64_t seed, bool global_order)
      : ex_(ex), global_order_(global_order) {
    for (size_t i = 0; i <= kHosts; ++i) ctx_[i].rng = Mix64(seed * 16 + i);
  }

  /// `steps` random driver steps, each followed by a pending() and
  /// events_executed() check, then a drain and a final check.
  void Drive(int steps) {
    for (int step = 0; step < steps; ++step) {
      uint64_t r = Next(kDriverCtx);
      if (r % 4 == 0) {
        TryCancel(kDriverCtx);
      } else if (r % 4 == 1) {
        SimTime off_grid = (r >> 8) % 2 == 0 ? 0 : 137;
        ex_->RunUntil(ex_->now() + ((r >> 16) % 7) * kGrid + off_grid);
      } else {
        for (uint64_t n = 0; n <= (r >> 8) % 3; ++n) {
          ScheduleRandom(kDriverCtx);
        }
      }
      CheckCounts();
    }
    ex_->Run();
    CheckCounts();
  }

  /// Never-cancelled events in canonical key order.
  std::vector<const Rec*> Reference() const {
    std::vector<const Rec*> out;
    for (const Context& c : ctx_) {
      for (const Rec& r : c.recs) {
        if (!r.cancelled) out.push_back(&r);
      }
    }
    std::sort(out.begin(), out.end(), [](const Rec* a, const Rec* b) {
      return std::tie(a->time, a->origin, a->origin_seq) <
             std::tie(b->time, b->origin, b->origin_seq);
    });
    return out;
  }

  static std::vector<Key> Keys(const std::vector<const Rec*>& recs) {
    std::vector<Key> out;
    for (const Rec* r : recs) {
      out.emplace_back(r->time, r->origin, r->origin_seq, r->owner);
    }
    return out;
  }

  /// Events `owner` executed, in order.
  const std::vector<const Rec*>& OwnerOrder(HostId owner) const {
    return ctx_[Index(owner)].log;
  }
  const std::vector<const Rec*>& global_log() const { return global_log_; }

  /// Wrong Cancel returns, double runs, runs of a cancelled event and runs
  /// at the wrong time, summed over contexts.
  int errors() const {
    int n = 0;
    for (const Context& c : ctx_) n += c.errors;
    return n;
  }
  size_t cancels() const {
    size_t n = 0;
    for (const Context& c : ctx_) {
      for (const Rec& r : c.recs) n += r.cancelled;
    }
    return n;
  }

 private:
  struct Context {
    uint64_t rng = 0;
    int budget = 40;        ///< Schedules left for this host's handlers.
    std::deque<Rec> recs;   ///< Its schedules; index = origin_seq.
    std::vector<Rec*> cancellable;  ///< Handles valid on both backends.
    std::vector<const Rec*> log;    ///< Events it owned and ran, in order.
    int errors = 0;
  };

  static size_t Index(HostId h) { return h == kDriverHost ? kDriverCtx : h; }
  static HostId HostOf(size_t ctx) {
    return ctx == kDriverCtx ? kDriverHost : static_cast<HostId>(ctx);
  }
  uint64_t Next(size_t ctx) { return ctx_[ctx].rng = Mix64(ctx_[ctx].rng); }

  void ScheduleRandom(size_t self) {
    uint64_t x = Next(self);
    HostId me = HostOf(self);
    SimTime delay;
    HostId owner;
    if (self == kDriverCtx) {
      // Driver context: any owner, any delay on the grid, zero included.
      owner = HostOf(x % (kHosts + 1));
      delay = ((x >> 8) % 5) * kGrid;
    } else if (x % 2 == 0) {
      owner = me;  // a timer: strictly in the future
      delay = (1 + (x >> 8) % 6) * kGrid;
    } else {
      owner = static_cast<HostId>((x >> 1) % kHosts);
      delay = (2 + (x >> 8) % 5) * kGrid;  // at least the lookahead
    }
    Context& c = ctx_[self];
    Rec& r = c.recs.emplace_back();
    r.time = ex_->now() + delay;
    r.origin = me;
    r.origin_seq = c.recs.size() - 1;
    r.owner = owner;
    r.handle = ex_->ScheduleAt(owner, r.time, [this, rec = &r] { Fire(rec); });
    if (self == kDriverCtx || owner == me) c.cancellable.push_back(&r);
  }

  void TryCancel(size_t self) {
    std::vector<Rec*> pool = ctx_[self].cancellable;
    if (self == kDriverCtx) {
      for (size_t h = 0; h < kHosts; ++h) {
        pool.insert(pool.end(), ctx_[h].cancellable.begin(),
                    ctx_[h].cancellable.end());
      }
    }
    if (pool.empty()) return;
    Rec* target = pool[Next(self) % pool.size()];
    bool want = !target->ran && !target->cancelled;
    bool got = ex_->Cancel(target->handle);
    if (got != want) ++ctx_[self].errors;
    if (got) target->cancelled = true;
  }

  void Fire(Rec* rec) {
    size_t self = Index(rec->owner);
    Context& c = ctx_[self];
    if (rec->ran || rec->cancelled || ex_->now() != rec->time) ++c.errors;
    rec->ran = true;
    c.log.push_back(rec);
    if (global_order_) global_log_.push_back(rec);
    uint64_t r = Next(self);
    for (uint64_t n = 0; n < r % 3 && c.budget > 0; ++n, --c.budget) {
      ScheduleRandom(self);
    }
    if ((r >> 8) % 3 == 0) TryCancel(self);
  }

  void CheckCounts() {
    size_t pending = 0, ran = 0;
    for (const Context& c : ctx_) {
      for (const Rec& r : c.recs) {
        pending += !r.ran && !r.cancelled;
        ran += r.ran;
      }
    }
    EXPECT_EQ(ex_->pending(), pending);
    EXPECT_EQ(ex_->events_executed(), ran);
  }

  Executor* ex_;
  const bool global_order_;
  std::array<Context, kHosts + 1> ctx_;
  std::vector<const Rec*> global_log_;  ///< Serial only: one thread.
};

TEST(CanonicalQueueDifferentialTest, BothBackendsMatchTheSortedReference) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SerialExecutor serial;
    QueueDifferential want(&serial, seed, /*global_order=*/true);
    want.Drive(60);
    std::vector<const QueueDifferential::Rec*> ref = want.Reference();
    ASSERT_GT(ref.size(), 150u);  // not vacuous
    EXPECT_GT(want.cancels(), 5u);
    EXPECT_EQ(want.errors(), 0);
    EXPECT_EQ(want.global_log(), ref);

    ShardedExecutor sharded({4, QueueDifferential::kLookahead});
    QueueDifferential got(&sharded, seed, /*global_order=*/false);
    got.Drive(60);
    std::vector<const QueueDifferential::Rec*> got_ref = got.Reference();
    EXPECT_EQ(got.errors(), 0);
    EXPECT_EQ(QueueDifferential::Keys(got_ref), QueueDifferential::Keys(ref));
    for (HostId owner = 0; owner <= QueueDifferential::kHosts; ++owner) {
      HostId h = owner == QueueDifferential::kHosts ? kDriverHost : owner;
      std::vector<const QueueDifferential::Rec*> per_owner;
      for (const auto* r : got_ref) {
        if (r->owner == h) per_owner.push_back(r);
      }
      EXPECT_EQ(got.OwnerOrder(h), per_owner) << "owner " << h;
    }
  }
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
