// Credit-based join flow control: a slow stage owner must backpressure the
// chunk producer (bounded in-flight bytes at the owner) without changing
// the final join answer, and weight conservation must survive pacing.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "dht/builder.h"
#include "pier/node.h"
#include "pier/plan.h"

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

  explicit Cluster(size_t n, const BatchOptions& opts) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 17);
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n,
                                               dht::DhtOptions{}, 555);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(std::make_unique<PierNode>(dht->node(i), &metrics));
      piers.back()->set_batch_options(opts);
    }
  }

  void PublishPostings(const std::string& kw, uint64_t lo, uint64_t hi) {
    std::vector<Tuple> tuples;
    for (uint64_t f = lo; f < hi; ++f) {
      tuples.push_back(Tuple({Value(kw), Value(f)}));
    }
    piers[0]->PublishBatch(InvSchema(), std::move(tuples));
    piers[0]->FlushPublishQueues();
    simulator.Run();
  }

  QueryPlan TwoStage() { return TwoKeywordPlan("alpha", "beta"); }

  static QueryPlan TwoKeywordPlan(const std::string& kw0,
                                  const std::string& kw1) {
    return PlanBuilder()
        .IndexScan("inverted", Value(kw0))
        .RehashJoin("inverted", Value(kw1))
        .Build();
  }

  sim::HostId OwnerOf(const std::string& kw) {
    dht::Key k = HashCombine(Fnv1a64("inverted"), Value(kw).Hash());
    return dht->ExpectedOwner(k)->host();
  }

  std::set<uint64_t> RunJoin(int* completions = nullptr) {
    std::set<uint64_t> ids;
    piers[3]->ExecutePlan(
        TwoStage(), [&, completions](Status s, std::vector<Tuple> rows,
                                     const Completeness&) {
          if (completions) ++*completions;
          EXPECT_TRUE(s.ok()) << s.ToString();
          for (const Tuple& r : rows) ids.insert(r.at(0).AsUint64());
        });
    simulator.Run();
    return ids;
  }
};

BatchOptions ChunkyOptions(size_t credit_window) {
  BatchOptions opts;
  opts.max_stage_entries = 8;  // 400 stage-0 survivors -> 50 chunks
  opts.stage_credit_chunks = credit_window;
  // These tests assert the fixed-window contract at exactly
  // `credit_window` (floor = ceiling); the service-rate-derived window is
  // covered by the AdaptiveWindow tests below.
  opts.max_stage_credit_chunks = credit_window;
  return opts;
}

/// Peak in-flight bytes at the slow beta owner below when all 50 chunks
/// went on the wire at once, as recorded under both routing policies
/// before emission without credit was removed (credited: 352).
constexpr size_t kUnpacedPeakInFlightBytes = 7672;

TEST(CreditFlowTest, SlowOwnerBoundsProducerInFlightBytes) {
  // alpha {0..400} all join beta {0..500}: stage 0 streams 50 chunks to
  // the (slow) beta owner. With a 2-chunk credit window the producer may
  // never have more than 2 chunks queued at the slow owner.
  Cluster credited(16, ChunkyOptions(2));
  credited.PublishPostings("alpha", 0, 400);
  credited.PublishPostings("beta", 0, 500);
  credited.network->SetProcessingDelay(credited.OwnerOf("beta"),
                                       20 * sim::kMillisecond);
  credited.network->ResetLoadWatermarks();

  // Exactly the published intersection despite pacing.
  std::set<uint64_t> expect;
  for (uint64_t f = 0; f < 400; ++f) expect.insert(f);
  EXPECT_EQ(credited.RunJoin(), expect);

  size_t peak_credited =
      credited.network->LoadOf(credited.OwnerOf("beta"))
          .peak_in_flight_bytes;
  // Unpaced, the 50-chunk burst piled up at the slow owner; credited, at
  // most the window (plus replies in the opposite direction, which do not
  // land on this host). Demand a decisive separation, not a tuned one.
  EXPECT_GT(kUnpacedPeakInFlightBytes, 4 * peak_credited);
  EXPECT_GT(credited.metrics.credits_stalled, 0u);
  EXPECT_GT(credited.metrics.credit_grants, 0u);
  EXPECT_EQ(credited.metrics.credit_streams_expired, 0u);
  EXPECT_EQ(credited.metrics.tuples_dropped_deserialize, 0u);
}

TEST(CreditFlowTest, WeightConservationFiresCallbackExactlyOnce) {
  Cluster c(16, ChunkyOptions(3));
  c.PublishPostings("alpha", 0, 200);
  c.PublishPostings("beta", 100, 300);
  c.network->SetProcessingDelay(c.OwnerOf("beta"), 15 * sim::kMillisecond);
  int completions = 0;
  auto ids = c.RunJoin(&completions);
  EXPECT_EQ(completions, 1);
  std::set<uint64_t> expect;
  for (uint64_t f = 100; f < 200; ++f) expect.insert(f);
  EXPECT_EQ(ids, expect);
}

TEST(CreditFlowTest, SmallStreamsSkipPacingEntirely) {
  // 3 chunks within a 4-chunk window: no stream state, no credit acks.
  Cluster c(16, ChunkyOptions(4));
  c.PublishPostings("alpha", 0, 24);
  c.PublishPostings("beta", 0, 24);
  auto ids = c.RunJoin();
  EXPECT_EQ(ids.size(), 24u);
  EXPECT_EQ(c.metrics.credits_stalled, 0u);
  EXPECT_EQ(c.metrics.credit_grants, 0u);
  EXPECT_EQ(c.network->metrics().by_tag.count("pier.credit"), 0u);
}

/// Two keywords owned by the two distinct nodes of a 2-node cluster, so
/// the stage-0 producer's next hop toward stage 1 IS the consuming owner
/// and the service-rate probe reads the consumer's true latency.
std::pair<std::string, std::string> DistinctOwnerKeywords(Cluster* c) {
  const char* candidates[] = {"alpha", "beta",  "gamma", "delta",
                              "epsilon", "zeta", "theta", "kappa"};
  for (const char* a : candidates) {
    for (const char* b : candidates) {
      if (a != b && c->OwnerOf(a) != c->OwnerOf(b)) return {a, b};
    }
  }
  ADD_FAILURE() << "no keyword pair with distinct owners";
  return {"alpha", "beta"};
}

std::set<uint64_t> RunTwoKeywordJoin(Cluster* c, const std::string& kw0,
                                     const std::string& kw1) {
  std::set<uint64_t> ids;
  bool done = false;
  c->piers[0]->ExecutePlan(Cluster::TwoKeywordPlan(kw0, kw1),
                           [&](Status s, std::vector<Tuple> rows,
                               const Completeness&) {
                             done = true;
                             EXPECT_TRUE(s.ok()) << s.ToString();
                             for (const Tuple& r : rows) {
                               ids.insert(r.at(0).AsUint64());
                             }
                           });
  c->simulator.Run();
  EXPECT_TRUE(done);
  return ids;
}

TEST(CreditFlowTest, AdaptiveWindowDeepensPipelineTowardFastOwner) {
  // Same chunky join, same fast (5ms) network: the fixed window stalls on
  // every chunk past it, while the service-rate-derived window reads the
  // low smoothed latency toward the consumer (warmed by the publish
  // traffic) and opens a deeper pipeline — measurably fewer stall
  // episodes, identical answers.
  BatchOptions fixed = ChunkyOptions(2);
  BatchOptions adaptive = ChunkyOptions(2);
  adaptive.max_stage_credit_chunks = 16;
  Cluster base(2, fixed), derived(2, adaptive);
  std::set<uint64_t> answers[2];
  size_t i = 0;
  for (Cluster* c : {&base, &derived}) {
    auto [kw0, kw1] = DistinctOwnerKeywords(c);
    c->PublishPostings(kw0, 0, 400);
    c->PublishPostings(kw1, 0, 500);
    answers[i++] = RunTwoKeywordJoin(c, kw0, kw1);
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[1].size(), 400u);
  EXPECT_GT(derived.metrics.credit_window_boosts, 0u);
  EXPECT_EQ(base.metrics.credit_window_boosts, 0u);
  EXPECT_LT(derived.metrics.credits_stalled, base.metrics.credits_stalled);
}

TEST(CreditFlowTest, AdaptiveWindowHoldsFloorTowardSlowOwner) {
  // A consumer whose observed service latency sits above the reference
  // must NOT earn a deeper window: the constant stays the floor and the
  // backpressure contract (stalls at the base window) is preserved.
  BatchOptions adaptive = ChunkyOptions(2);
  adaptive.max_stage_credit_chunks = BatchOptions{}.max_stage_credit_chunks;
  Cluster c(2, adaptive);
  auto [kw0, kw1] = DistinctOwnerKeywords(&c);
  // Slow the consumer BEFORE any traffic so the warmed EWMA reflects its
  // true service rate (5ms wire + 30ms processing > ref/2).
  c.network->SetProcessingDelay(c.OwnerOf(kw1), 30 * sim::kMillisecond);
  c.PublishPostings(kw0, 0, 200);
  c.PublishPostings(kw1, 0, 200);
  auto ids = RunTwoKeywordJoin(&c, kw0, kw1);
  EXPECT_EQ(ids.size(), 200u);
  EXPECT_EQ(c.metrics.credit_window_boosts, 0u);
  EXPECT_GT(c.metrics.credits_stalled, 0u);
}

TEST(CreditFlowTest, StarvedStreamExpiresAndJoinTimesOutWithPartial) {
  BatchOptions opts = ChunkyOptions(2);
  // Pin the single-dispatch contract: with failover on, the no-progress
  // watchdog re-dispatches stage 0 and each retry expires its own stream.
  opts.stage_failover_budget = 0;
  Cluster c(16, opts);
  c.PublishPostings("alpha", 0, 200);
  c.PublishPostings("beta", 0, 200);
  // An effectively wedged stage owner: deliveries (and thus credit acks)
  // are postponed past both the stall timeout and the query timeout. The
  // producer's stream must expire instead of leaking, and the query must
  // time out with the partial-result contract intact.
  c.network->SetProcessingDelay(c.OwnerOf("beta"), 60 * sim::kSecond);
  bool done = false;
  c.piers[3]->ExecutePlan(
      c.TwoStage(),
      [&](Status s, std::vector<Tuple> rows, const Completeness& done_c) {
        done = true;
        EXPECT_FALSE(s.ok());  // timed out, not completed
        EXPECT_FALSE(done_c.exact);
        (void)rows;  // whatever chunks made it — none here
      },
      /*timeout=*/20 * sim::kSecond);
  c.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.metrics.credit_streams_expired, 1u);
  EXPECT_GT(c.metrics.credits_stalled, 0u);
}

}  // namespace
}  // namespace pierstack::pier
