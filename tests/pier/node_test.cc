// PierNode: DHT-backed storage and the distributed join chain, run as
// IndexScan/RehashJoin plans through ExecutePlan.
#include "pier/node.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <set>

#include "dht/builder.h"
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

  explicit Cluster(size_t n,
                   dht::OverlayKind kind = dht::OverlayKind::kChord) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 17);
    dht::DhtOptions opts;
    opts.overlay = kind;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n, opts, 555);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(std::make_unique<PierNode>(dht->node(i), &metrics));
    }
  }

  PierNode* pier(size_t i) { return piers[i].get(); }

  void PublishPosting(size_t from, const std::string& kw, uint64_t file_id) {
    pier(from)->PublishBatch(InvSchema(), {Tuple({Value(kw), Value(file_id)})});
  }

  /// Runs `plan` from node `from` to quiescence and returns its
  /// [join_key, payload...] rows; the callback must fire OK.
  std::vector<Tuple> RunPlan(size_t from, QueryPlan plan) {
    std::vector<Tuple> out;
    bool done = false;
    pier(from)->ExecutePlan(std::move(plan),
                            [&](Status s, std::vector<Tuple> rows,
                                const Completeness&) {
                              done = true;
                              EXPECT_TRUE(s.ok()) << s.ToString();
                              out = std::move(rows);
                            });
    simulator.Run();
    EXPECT_TRUE(done);
    return out;
  }
};

/// The keyword chain over "inverted": an IndexScan on the first keyword,
/// RehashJoined with each later one on fileID.
QueryPlan Chain(std::initializer_list<const char*> keywords) {
  PlanBuilder b;
  bool first = true;
  for (const char* kw : keywords) {
    if (first) {
      b.IndexScan("inverted", Value(std::string(kw)));
    } else {
      b.RehashJoin("inverted", Value(std::string(kw)));
    }
    first = false;
  }
  return b.Build();
}

std::set<uint64_t> JoinKeys(const std::vector<Tuple>& rows) {
  std::set<uint64_t> ids;
  for (const Tuple& r : rows) ids.insert(r.at(0).AsUint64());
  return ids;
}

TEST(PierNodeTest, PublishLandsAtKeywordOwner) {
  Cluster c(32);
  c.PublishPosting(0, "madonna", 111);
  c.simulator.Run();
  dht::DhtNode* owner = c.dht->ExpectedOwner(
      HashCombine(Fnv1a64("inverted"), Value(std::string("madonna")).Hash()));
  // Owner-side local scan sees the tuple; everyone else sees nothing.
  int holders = 0;
  for (size_t i = 0; i < c.piers.size(); ++i) {
    auto local = c.pier(i)->ScanLocal(InvSchema(), Value(std::string("madonna")));
    if (!local.empty()) {
      ++holders;
      EXPECT_EQ(c.dht->node(i)->host(), owner->host());
      EXPECT_EQ(local[0].at(1).AsUint64(), 111u);
    }
  }
  EXPECT_EQ(holders, 1);
}

TEST(PierNodeTest, FetchReturnsAllTuplesForKey) {
  Cluster c(16);
  c.PublishPosting(1, "beatles", 1);
  c.PublishPosting(2, "beatles", 2);
  c.PublishPosting(3, "beatles", 3);
  c.simulator.Run();
  std::vector<Tuple> got;
  c.pier(9)->FetchMany(InvSchema(), {Value(std::string("beatles"))},
                       [&](Status s, std::vector<Tuple> tuples,
                           const Completeness&) {
                         ASSERT_TRUE(s.ok());
                         got = std::move(tuples);
                       });
  c.simulator.Run();
  EXPECT_EQ(got.size(), 3u);
}

TEST(PierNodeTest, SingleStageJoinReturnsPostingList) {
  Cluster c(16);
  for (uint64_t f : {10u, 20u, 30u}) c.PublishPosting(0, "solo", f);
  c.simulator.Run();
  EXPECT_EQ(JoinKeys(c.RunPlan(5, Chain({"solo"}))),
            (std::set<uint64_t>{10, 20, 30}));
}

TEST(PierNodeTest, TwoStageChainIntersects) {
  Cluster c(24);
  // "alpha" posting: {1,2,3}; "beta": {2,3,4} → intersection {2,3}.
  for (uint64_t f : {1u, 2u, 3u}) c.PublishPosting(0, "alpha", f);
  for (uint64_t f : {2u, 3u, 4u}) c.PublishPosting(1, "beta", f);
  c.simulator.Run();
  EXPECT_EQ(JoinKeys(c.RunPlan(7, Chain({"alpha", "beta"}))),
            (std::set<uint64_t>{2, 3}));
}

TEST(PierNodeTest, ThreeStageChain) {
  Cluster c(24);
  for (uint64_t f : {1u, 2u, 3u, 4u}) c.PublishPosting(0, "a", f);
  for (uint64_t f : {2u, 3u, 4u, 5u}) c.PublishPosting(0, "b", f);
  for (uint64_t f : {3u, 4u, 6u}) c.PublishPosting(0, "c", f);
  c.simulator.Run();
  EXPECT_EQ(JoinKeys(c.RunPlan(3, Chain({"a", "b", "c"}))),
            (std::set<uint64_t>{3, 4}));
}

TEST(PierNodeTest, EmptyIntersectionShortCircuits) {
  Cluster c(16);
  c.PublishPosting(0, "left", 1);
  c.PublishPosting(0, "right", 2);
  c.PublishPosting(0, "tail", 3);
  c.simulator.Run();
  c.metrics = PierMetrics{};
  EXPECT_TRUE(c.RunPlan(2, Chain({"left", "right", "tail"})).empty());
  // The chain stopped after stage 2 (empty after intersecting "right"):
  // only the initial route plus one forward happened.
  EXPECT_LE(c.metrics.join_stage_messages, 2u);
}

TEST(PierNodeTest, MissingKeywordYieldsEmpty) {
  Cluster c(16);
  c.PublishPosting(0, "exists", 1);
  c.simulator.Run();
  EXPECT_TRUE(c.RunPlan(1, Chain({"exists", "missing"})).empty());
}

TEST(PierNodeTest, LimitCapsResults) {
  Cluster c(16);
  for (uint64_t f = 0; f < 50; ++f) c.PublishPosting(0, "many", f);
  c.simulator.Run();
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted", Value(std::string("many")))
                       .Limit(10)
                       .Build();
  EXPECT_EQ(c.RunPlan(1, std::move(plan)).size(), 10u);
}

TEST(PierNodeTest, SubstringFilterStage) {
  Cluster c(16);
  const Schema ic("invcache",
                  {{"keyword", ValueType::kString},
                   {"fileID", ValueType::kUint64},
                   {"fulltext", ValueType::kString}},
                  0);
  c.pier(0)->PublishBatch(
      ic, {Tuple({Value(std::string("moon")), Value(uint64_t{1}),
                  Value(std::string("dark side moon.mp3"))}),
           Tuple({Value(std::string("moon")), Value(uint64_t{2}),
                  Value(std::string("blue moon swing.mp3"))})});
  c.simulator.Run();
  // Rows are [join_key, fileID, fulltext]: the stage's payload follows
  // the join key.
  QueryPlan plan = PlanBuilder()
                       .IndexScan("invcache", Value(std::string("moon")), 0, 1)
                       .Filter(Expr::Contains(Expr::Column(2), "dark"))
                       .Project({1, 2})
                       .Build();
  std::vector<Tuple> got = c.RunPlan(4, std::move(plan));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].at(0).AsUint64(), 1u);
  EXPECT_EQ(got[0].at(2).AsString(), "dark side moon.mp3");
}

TEST(PierNodeTest, ProbePostingSize) {
  Cluster c(16);
  for (uint64_t f = 0; f < 7; ++f) c.PublishPosting(0, "sized", f);
  c.simulator.Run();
  size_t size = SIZE_MAX;
  c.pier(3)->ProbePostingSize("inverted", Value(std::string("sized")),
                              [&](Status s, size_t n) {
                                ASSERT_TRUE(s.ok());
                                size = n;
                              });
  c.simulator.Run();
  EXPECT_EQ(size, 7u);
  size_t zero = SIZE_MAX;
  c.pier(3)->ProbePostingSize("inverted", Value(std::string("unknown")),
                              [&](Status s, size_t n) {
                                ASSERT_TRUE(s.ok());
                                zero = n;
                              });
  c.simulator.Run();
  EXPECT_EQ(zero, 0u);
}

TEST(PierNodeTest, ShippedEntriesCounted) {
  Cluster c(16);
  for (uint64_t f = 0; f < 20; ++f) c.PublishPosting(0, "first", f);
  for (uint64_t f = 0; f < 20; f += 2) c.PublishPosting(0, "second", f);
  c.simulator.Run();
  c.metrics = PierMetrics{};
  c.RunPlan(1, Chain({"first", "second"}));
  // Stage 0 ships its 20 postings to stage 1.
  EXPECT_EQ(c.metrics.posting_entries_shipped, 20u);
}

TEST(PierNodeTest, WorksOnBambooOverlay) {
  Cluster c(32, dht::OverlayKind::kBamboo);
  for (uint64_t f : {1u, 2u}) c.PublishPosting(0, "bamboo", f);
  c.simulator.Run();
  EXPECT_EQ(JoinKeys(c.RunPlan(9, Chain({"bamboo"}))),
            (std::set<uint64_t>{1, 2}));
}

}  // namespace
}  // namespace pierstack::pier
