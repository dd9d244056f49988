// Standing rehash queues: per-destination send buffers must coalesce
// publishes ACROSS PublishBatch calls, flush on size immediately and on
// the flush interval otherwise, and aggregate acks correctly.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "dht/builder.h"
#include "pier/node.h"

namespace pierstack::pier {
namespace {

const Schema& InvSchema() {
  static const Schema* s = new Schema(
      "inverted",
      {{"keyword", ValueType::kString}, {"fileID", ValueType::kUint64}}, 0);
  return *s;
}

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  PierMetrics metrics;
  std::vector<std::unique_ptr<PierNode>> piers;

  explicit Cluster(size_t n) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 17);
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n,
                                               dht::DhtOptions{}, 555);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(std::make_unique<PierNode>(dht->node(i), &metrics));
    }
  }

  size_t StoredUnder(const std::string& kw) {
    std::set<uint64_t> ids;
    for (auto& pier : piers) {
      for (const Tuple& t : pier->ScanLocal(InvSchema(), Value(kw))) {
        ids.insert(t.at(1).AsUint64());
      }
    }
    return ids.size();
  }
};

TEST(RehashQueueTest, CoalescesAcrossCalls) {
  Cluster c(16);
  // Fixed-bound policy: the adaptive threshold would ship an eager batch
  // mid-stream; this test pins the pure cross-call coalescing behavior.
  BatchOptions fixed;
  fixed.min_batch_tuples = fixed.max_batch_tuples;
  c.piers[0]->set_batch_options(fixed);
  // 30 calls of one tuple each, all to the same keyword — the QRS snoop
  // shape. The standing queue must merge them into ONE PutBatch message.
  for (uint64_t f = 0; f < 30; ++f) {
    c.piers[0]->PublishBatch(InvSchema(),
                             {Tuple({Value(std::string("snooped")),
                                     Value(f)})});
  }
  c.simulator.Run();
  EXPECT_EQ(c.metrics.publish_messages, 1u);
  EXPECT_EQ(c.metrics.tuples_published, 30u);
  EXPECT_EQ(c.StoredUnder("snooped"), 30u);
  EXPECT_EQ(c.dht->metrics().batch_puts, 1u);
  EXPECT_EQ(c.dht->metrics().batch_put_values, 30u);
}

TEST(RehashQueueTest, SizeFlushShipsImmediatelyTimeFlushWaits) {
  Cluster c(8);
  BatchOptions opts;
  opts.max_batch_tuples = 4;
  opts.flush_interval = 200 * sim::kMillisecond;
  c.piers[0]->set_batch_options(opts);

  // Queue "slow" gets 2 tuples (below the size bound): it may only ship on
  // the interval. Queue "fast" gets 4: it must ship at once.
  c.piers[0]->PublishBatch(
      InvSchema(), {Tuple({Value(std::string("slow")), Value(uint64_t{1})}),
                    Tuple({Value(std::string("slow")), Value(uint64_t{2})})});
  std::vector<Tuple> fast;
  for (uint64_t f = 0; f < 4; ++f) {
    fast.push_back(Tuple({Value(std::string("fast")), Value(f)}));
  }
  c.piers[0]->PublishBatch(InvSchema(), std::move(fast));

  // Well before the interval: only the size-triggered flush is visible.
  c.simulator.RunFor(50 * sim::kMillisecond);
  EXPECT_EQ(c.metrics.publish_messages, 1u);
  EXPECT_EQ(c.StoredUnder("fast"), 4u);
  EXPECT_EQ(c.StoredUnder("slow"), 0u);

  // Past the interval: the time-based flush shipped the rest.
  c.simulator.RunFor(300 * sim::kMillisecond);
  EXPECT_EQ(c.metrics.publish_messages, 2u);
  EXPECT_EQ(c.StoredUnder("slow"), 2u);
}

TEST(RehashQueueTest, OversizedStreamSplitsByThreshold) {
  Cluster c(8);
  BatchOptions opts;
  opts.max_batch_tuples = 4;
  c.piers[0]->set_batch_options(opts);
  // 10 tuples to one destination across several calls: 2 size flushes + 1
  // interval flush for the remainder.
  for (uint64_t f = 0; f < 10; ++f) {
    c.piers[0]->PublishBatch(InvSchema(),
                             {Tuple({Value(std::string("solo")), Value(f)})});
  }
  c.simulator.Run();
  EXPECT_EQ(c.metrics.publish_messages, 3u);
  EXPECT_EQ(c.StoredUnder("solo"), 10u);
}

TEST(RehashQueueTest, DifferingExpiryStartsFreshBatch) {
  Cluster c(8);
  c.piers[0]->PublishBatch(
      InvSchema(), {Tuple({Value(std::string("kw")), Value(uint64_t{1})})},
      /*expiry=*/0);
  c.piers[0]->PublishBatch(
      InvSchema(), {Tuple({Value(std::string("kw")), Value(uint64_t{2})})},
      /*expiry=*/10 * sim::kSecond);
  c.simulator.Run();
  // One batch per expiry class; both tuples stored.
  EXPECT_EQ(c.metrics.publish_messages, 2u);
  EXPECT_EQ(c.StoredUnder("kw"), 2u);
}

TEST(RehashQueueTest, AckSpansQueuesAndFiresOnce) {
  Cluster c(8);
  BatchOptions opts;
  opts.max_batch_tuples = 2;
  c.piers[0]->set_batch_options(opts);
  // 5 tuples over 2 destinations: "a" flushes by size mid-call (2 + 1
  // pending), "b" stays pending — the ack must wait for the in-flight
  // batch AND both interval flushes.
  std::vector<Tuple> tuples;
  for (uint64_t f = 0; f < 3; ++f) {
    tuples.push_back(Tuple({Value(std::string("a")), Value(f)}));
  }
  for (uint64_t f = 0; f < 2; ++f) {
    tuples.push_back(Tuple({Value(std::string("b")), Value(f)}));
  }
  int acks = 0;
  Status last = Status::Internal("never fired");
  c.piers[0]->PublishBatch(InvSchema(), std::move(tuples), 0, [&](Status s) {
    ++acks;
    last = s;
  });
  c.simulator.Run();
  EXPECT_EQ(acks, 1);
  EXPECT_TRUE(last.ok());
  EXPECT_EQ(c.StoredUnder("a"), 3u);
  EXPECT_EQ(c.StoredUnder("b"), 2u);
}

TEST(RehashQueueTest, RefreshFlushesQueuedDestinationFirst) {
  // A queued short-expiry publish must ship BEFORE a later refresh of the
  // same tuple with another expiry — otherwise the stale queued expiry
  // would roll back the refresh when the queue flushed.
  Cluster c(8);
  Tuple t({Value(std::string("kw")), Value(uint64_t{1})});
  c.piers[0]->PublishBatch(InvSchema(), {t}, /*expiry=*/100 * sim::kMillisecond);
  c.piers[0]->PublishBatch(InvSchema(), {t}, /*expiry=*/0);  // permanent
  c.simulator.RunUntil(5 * sim::kSecond);
  EXPECT_EQ(c.metrics.publish_messages, 2u);  // the expiry change split it
  EXPECT_EQ(c.StoredUnder("kw"), 1u);  // survived well past 100ms
}

// --- Load-adaptive flush policy ---------------------------------------------

TEST(AdaptiveFlushTest, IdleDestinationFlushesEagerly) {
  Cluster c(16);
  BatchOptions opts;
  opts.min_batch_tuples = 8;
  opts.flush_interval = 500 * sim::kMillisecond;
  c.piers[0]->set_batch_options(opts);
  // Nothing in flight toward the destination: the 8th tuple must ship
  // immediately instead of waiting for 256 tuples or the 500ms timer.
  for (uint64_t f = 0; f < 8; ++f) {
    c.piers[0]->PublishBatch(InvSchema(),
                             {Tuple({Value(std::string("eager")), Value(f)})});
  }
  EXPECT_EQ(c.metrics.publish_messages, 1u);
  EXPECT_EQ(c.metrics.adaptive_flushes, 1u);
  c.simulator.Run();
  EXPECT_EQ(c.StoredUnder("eager"), 8u);
}

TEST(AdaptiveFlushTest, PressureGrowsBatchesTowardCeiling) {
  Cluster c(16);
  BatchOptions opts;
  opts.min_batch_tuples = 8;
  c.piers[0]->set_batch_options(opts);
  // 64 tuples to one destination in one burst. The first flush goes out at
  // 8 (idle path); each flush left in flight doubles the threshold, so the
  // burst ships as exponentially growing batches (8, 16, 32, ...) instead
  // of 8 fixed-size ones — slow-start-shaped adaptation.
  std::vector<Tuple> burst;
  for (uint64_t f = 0; f < 64; ++f) {
    burst.push_back(Tuple({Value(std::string("busy")), Value(f)}));
  }
  c.piers[0]->PublishBatch(InvSchema(), std::move(burst));
  // 8 + 16 + 32 = 56 shipped in 3 growing batches; 8 await the timer.
  EXPECT_EQ(c.metrics.publish_messages, 3u);
  c.simulator.Run();
  EXPECT_EQ(c.metrics.publish_messages, 4u);
  EXPECT_EQ(c.StoredUnder("busy"), 64u);
}

TEST(AdaptiveFlushTest, CeilingConstantsStillBound) {
  Cluster c(16);
  BatchOptions opts;
  opts.min_batch_tuples = 8;
  opts.max_batch_tuples = 16;  // ceiling below the adaptive ramp
  c.piers[0]->set_batch_options(opts);
  std::vector<Tuple> burst;
  for (uint64_t f = 0; f < 40; ++f) {
    burst.push_back(Tuple({Value(std::string("capped")), Value(f)}));
  }
  c.piers[0]->PublishBatch(InvSchema(), std::move(burst));
  c.simulator.Run();
  // 8, then capped at 16 per batch: 8 + 16 + 16 = 40 -> 3 messages, and
  // only the first was an adaptive (below-ceiling) flush.
  EXPECT_EQ(c.metrics.publish_messages, 3u);
  EXPECT_EQ(c.metrics.adaptive_flushes, 1u);
  EXPECT_EQ(c.StoredUnder("capped"), 40u);
}

TEST(AdaptiveFlushTest, AdaptiveAndFixedStoreIdenticalState) {
  Cluster adaptive(16), fixed(16);
  BatchOptions fopts;
  fopts.min_batch_tuples = fopts.max_batch_tuples;  // the fixed bound
  fixed.piers[0]->set_batch_options(fopts);
  for (Cluster* c : {&adaptive, &fixed}) {
    for (uint64_t f = 0; f < 120; ++f) {
      c->piers[0]->PublishBatch(
          InvSchema(),
          {Tuple({Value("kw" + std::to_string(f % 5)), Value(f)})});
    }
    c->simulator.Run();
  }
  for (int k = 0; k < 5; ++k) {
    std::string kw = "kw" + std::to_string(k);
    EXPECT_EQ(adaptive.StoredUnder(kw), fixed.StoredUnder(kw)) << kw;
    EXPECT_EQ(adaptive.StoredUnder(kw), 24u) << kw;
  }
  // The policy changes message pacing, never the stored tuples.
  EXPECT_EQ(adaptive.metrics.tuples_published,
            fixed.metrics.tuples_published);
  EXPECT_GT(adaptive.metrics.adaptive_flushes, 0u);
  EXPECT_EQ(fixed.metrics.adaptive_flushes, 0u);
}

TEST(RehashQueueTest, ExplicitFlushShipsPendingNow) {
  Cluster c(8);
  c.piers[0]->PublishBatch(InvSchema(),
                           {Tuple({Value(std::string("kw")),
                                   Value(uint64_t{1})})});
  EXPECT_EQ(c.metrics.publish_messages, 0u);  // still queued
  c.piers[0]->FlushPublishQueues();
  EXPECT_EQ(c.metrics.publish_messages, 1u);
  c.simulator.Run();
  EXPECT_EQ(c.StoredUnder("kw"), 1u);
  // The cancelled interval timer must not double-flush.
  EXPECT_EQ(c.metrics.publish_messages, 1u);
}

}  // namespace
}  // namespace pierstack::pier
