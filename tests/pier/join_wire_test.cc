// Join-stage transport: large intermediate row lists stream stage-to-stage
// in chunks with weight-throwing completion at the query node.
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

  explicit Cluster(size_t n, size_t max_stage_entries = 1024) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 17);
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n,
                                               dht::DhtOptions{}, 555);
    BatchOptions opts;
    opts.max_stage_entries = max_stage_entries;
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

  QueryPlan TwoStage(size_t limit = SIZE_MAX) {
    PlanBuilder b;
    b.IndexScan("inverted", Value(std::string("alpha")))
        .RehashJoin("inverted", Value(std::string("beta")));
    if (limit != SIZE_MAX) b.Limit(limit);
    return b.Build();
  }

  /// Runs `plan` from node `from` to quiescence and returns the join keys
  /// of its rows; `*completions` counts callback invocations.
  std::set<uint64_t> RunJoin(size_t from, QueryPlan plan,
                             int* completions = nullptr) {
    std::set<uint64_t> ids;
    piers[from]->ExecutePlan(
        std::move(plan), [&, completions](Status s, std::vector<Tuple> rows,
                                          const Completeness&) {
          if (completions) ++*completions;
          EXPECT_TRUE(s.ok()) << s.ToString();
          for (const Tuple& r : rows) ids.insert(r.at(0).AsUint64());
        });
    simulator.Run();
    return ids;
  }
};

TEST(JoinWireTest, ChunkedStageStreamingReturnsCompleteAnswer) {
  // alpha {0..100}, beta {50..150} → intersection {50..100} (50 entries).
  // With a 8-entry stage flush threshold, stage 0's 100 surviving entries
  // stream to stage 1 as 13 chunks; every chunk's reply must be awaited.
  Cluster chunked(16, /*max_stage_entries=*/8);
  chunked.PublishPostings("alpha", 0, 100);
  chunked.PublishPostings("beta", 50, 150);
  int completions = 0;
  std::set<uint64_t> ids = chunked.RunJoin(3, chunked.TwoStage(),
                                           &completions);
  EXPECT_EQ(completions, 1);  // weight conservation: fires exactly once
  std::set<uint64_t> expect;
  for (uint64_t f = 50; f < 100; ++f) expect.insert(f);
  EXPECT_EQ(ids, expect);
  // 1 initial + ceil(100/8) = 13 forwarded chunks.
  EXPECT_EQ(chunked.metrics.join_stage_messages, 14u);
  EXPECT_EQ(chunked.metrics.posting_entries_shipped, 100u);
  EXPECT_EQ(chunked.metrics.tuples_dropped_deserialize, 0u);
}

TEST(JoinWireTest, ChunkedAndUnchunkedAnswersMatch) {
  Cluster chunked(16, 8), whole(16, 1024);
  for (Cluster* c : {&chunked, &whole}) {
    c->PublishPostings("alpha", 0, 60);
    c->PublishPostings("beta", 30, 90);
  }
  auto a = chunked.RunJoin(1, chunked.TwoStage());
  auto b = whole.RunJoin(1, whole.TwoStage());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 30u);
  EXPECT_GT(chunked.metrics.join_stage_messages,
            whole.metrics.join_stage_messages);
}

TEST(JoinWireTest, LimitHoldsAcrossChunks) {
  Cluster c(16, /*max_stage_entries=*/8);
  c.PublishPostings("alpha", 0, 80);
  c.PublishPostings("beta", 0, 80);
  EXPECT_EQ(c.RunJoin(2, c.TwoStage(/*limit=*/10)).size(), 10u);
}

}  // namespace
}  // namespace pierstack::pier
