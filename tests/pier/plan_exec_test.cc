// ExecutePlan end to end over a real DHT topology: compiled plan chains
// must return the exact answer set of the published corpus at a frozen
// message cost, and richer plan shapes — filter-pushdown keyword joins,
// TopK over fetched columns, aggregates — must run to the right answers.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

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

const Schema& CacheSchema() {
  static const Schema* s = new Schema("inverted_cache",
                                      {{"keyword", ValueType::kString},
                                       {"fileID", ValueType::kUint64},
                                       {"fulltext", ValueType::kString}},
                                      0);
  return *s;
}

const Schema& ItemSchema() {
  static const Schema* s = new Schema("item",
                                      {{"fileID", ValueType::kUint64},
                                       {"name", ValueType::kString},
                                       {"size", ValueType::kUint64}},
                                      0);
  return *s;
}

const Schema& ScoresSchema() {
  static const Schema* s = new Schema("scores",
                                      {{"keyword", ValueType::kString},
                                       {"id", ValueType::kUint64},
                                       {"score", ValueType::kUint64},
                                       {"grp", ValueType::kInt64},
                                       {"tag", ValueType::kString}},
                                      0);
  return *s;
}

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  PierMetrics metrics;
  std::vector<std::unique_ptr<PierNode>> piers;

  explicit Cluster(size_t n, BatchOptions batch = BatchOptions{}) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 31);
    // This suite asserts exact message counts; pin the classic routing
    // path so the owner location cache (warmed by the corpus publish)
    // cannot skew them.
    dht::DhtOptions dopts;
    dopts.routing_policy = dht::RoutingPolicyKind::kClassicChord;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n, dopts, 777);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(std::make_unique<PierNode>(dht->node(i), &metrics));
      piers.back()->set_batch_options(batch);
    }
  }

  void Publish(const Schema& schema, std::vector<Tuple> tuples) {
    piers[0]->PublishBatch(schema, std::move(tuples));
    piers[0]->FlushPublishQueues();
    simulator.Run();
  }

  std::vector<Tuple> RunPlan(QueryPlan plan, Status* status = nullptr) {
    std::vector<Tuple> out;
    bool done = false;
    piers[2]->ExecutePlan(std::move(plan), [&](Status s,
                                               std::vector<Tuple> rows,
                                               const Completeness&) {
      done = true;
      if (status) *status = s;
      else EXPECT_TRUE(s.ok()) << s.ToString();
      out = std::move(rows);
    });
    simulator.Run();
    EXPECT_TRUE(done);
    return out;
  }
};

/// madonna ∩ prayer = {0..50}, plus items with sizes 1000+id.
void PublishCorpus(Cluster* c) {
  std::vector<Tuple> inv, cache, items;
  for (uint64_t f = 0; f < 120; ++f) {
    inv.push_back(Tuple({Value("madonna"), Value(f)}));
    cache.push_back(Tuple({Value("madonna"), Value(f),
                           Value("madonna track " + std::to_string(f) +
                                 (f % 2 == 0 ? " live.mp3" : " studio.mp3"))}));
  }
  for (uint64_t f = 0; f < 50; ++f) {
    inv.push_back(Tuple({Value("prayer"), Value(f)}));
  }
  for (uint64_t f = 0; f < 120; ++f) {
    items.push_back(Tuple({Value(f), Value("file " + std::to_string(f)),
                           Value(uint64_t{1000 + f})}));
  }
  c->piers[0]->PublishBatch(InvSchema(), std::move(inv));
  c->piers[0]->PublishBatch(CacheSchema(), std::move(cache));
  c->piers[0]->PublishBatch(ItemSchema(), std::move(items));
  c->piers[0]->FlushPublishQueues();
  c->simulator.Run();
}

TEST(PlanExecTest, PlanChainReturnsCorpusIntersectionAtFrozenCost) {
  Cluster c(24);
  PublishCorpus(&c);

  uint64_t msgs_before = c.network->metrics().total.messages;
  uint64_t stage_before = c.metrics.join_stage_messages;
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted", Value("madonna"))
                       .RehashJoin("inverted", Value("prayer"))
                       .Build();
  std::set<uint64_t> via_plan;
  for (const Tuple& t : c.RunPlan(std::move(plan))) {
    ASSERT_GE(t.arity(), 1u);
    via_plan.insert(t.at(0).AsUint64());
  }
  uint64_t plan_msgs = c.network->metrics().total.messages - msgs_before;
  uint64_t plan_stages = c.metrics.join_stage_messages - stage_before;

  // Ground truth from the corpus: madonna ∩ prayer = fileIDs 0..49.
  std::set<uint64_t> expect;
  for (uint64_t f = 0; f < 50; ++f) expect.insert(f);
  EXPECT_EQ(via_plan, expect);
  // The two-keyword chain's transport cost, as recorded when a hardwired
  // join-chain entry point ran beside ExecutePlan and matched it exactly:
  // 2 routed stage messages, 7 network messages in all.
  EXPECT_EQ(plan_stages, 2u);
  EXPECT_EQ(plan_msgs, 7u);
  EXPECT_EQ(c.metrics.plans_executed, 1u);
  EXPECT_EQ(c.metrics.tuples_dropped_deserialize, 0u);
}

TEST(PlanExecTest, FilterPushdownJoinWithTopKOverFetchedColumn) {
  // The new expressiveness: keep only "live" tracks (substring filter
  // pushed down to the cache owner), join with "prayer", resolve Item
  // tuples and return the 5 largest by file size (a TopK and a post-fetch
  // ordering the search strategies cannot express).
  Cluster c(24);
  PublishCorpus(&c);
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted_cache", Value("madonna"),
                                  /*key_col=*/0, /*join_col=*/1)
                       .Filter(Expr::Contains(Expr::Column(2), "live"))
                       .RehashJoin("inverted", Value("prayer"))
                       .FetchJoin("item")
                       .TopK(/*col=*/2, /*k=*/5)
                       .Build();
  std::vector<Tuple> rows = c.RunPlan(std::move(plan));
  // Survivors: even ids in 0..50 ("live" ∩ prayer); top 5 by size are the
  // 5 largest even ids: 48, 46, 44, 42, 40.
  ASSERT_EQ(rows.size(), 5u);
  std::set<uint64_t> got;
  for (const Tuple& t : rows) {
    ASSERT_EQ(t.arity(), 3u);
    got.insert(t.at(0).AsUint64());
  }
  EXPECT_EQ(got, (std::set<uint64_t>{40, 42, 44, 46, 48}));
  EXPECT_EQ(rows[0].at(2).AsUint64(), 1048u);  // ordered: largest first
}

TEST(PlanExecTest, NumericFilterAfterFetchJoin) {
  // Post-fetch predicate on a numeric Item column — possible only because
  // Expr crosses the wire where std::function could not.
  Cluster c(16);
  PublishCorpus(&c);
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted", Value("prayer"))
                       .FetchJoin("item")
                       .Filter(Expr::Ge(Expr::Column(2),
                                        Expr::Literal(Value(uint64_t{1045}))))
                       .Build();
  std::vector<Tuple> rows = c.RunPlan(std::move(plan));
  std::set<uint64_t> got;
  for (const Tuple& t : rows) got.insert(t.at(0).AsUint64());
  EXPECT_EQ(got, (std::set<uint64_t>{45, 46, 47, 48, 49}));
}

TEST(PlanExecTest, GroupAggregateFinisher) {
  Cluster c(16);
  PublishCorpus(&c);
  // Count the madonna posting list and take its max fileID, grouped by
  // nothing — one summary row computed at the query node.
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted", Value("madonna"))
                       .GroupAggregate({},
                                       {AggregateSpec{AggregateSpec::kCount, 0},
                                        AggregateSpec{AggregateSpec::kMax, 0}})
                       .Build();
  std::vector<Tuple> rows = c.RunPlan(std::move(plan));
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].arity(), 2u);
  EXPECT_EQ(rows[0].at(0).AsUint64(), 120u);
  EXPECT_DOUBLE_EQ(rows[0].at(1).AsDouble(), 119.0);  // min/max emit doubles
}

TEST(PlanExecTest, LimitCapsPlanAnswers) {
  Cluster c(16);
  PublishCorpus(&c);
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted", Value("madonna"))
                       .RehashJoin("inverted", Value("prayer"))
                       .Limit(7)
                       .Build();
  EXPECT_EQ(c.RunPlan(std::move(plan)).size(), 7u);
}

/// "alpha" {0..9} joined with "beta" {0..4}: five [join_key, payload...]
/// rows, all narrower than column 7.
PlanBuilder AlphaJoinBeta() {
  PlanBuilder b;
  b.IndexScan("inverted", Value("alpha")).RehashJoin("inverted", Value("beta"));
  return b;
}

TEST(PlanExecTest, FinishersReadMissingColumnsAsDefaultValue) {
  // Row widths come from the store, so CompilePlan cannot reject a
  // finisher column past the row. Like Expr::Eval, every finisher reads
  // such a column as Value() instead of reading past the row.
  Cluster c(16);
  std::vector<Tuple> inv;
  for (uint64_t f = 0; f < 10; ++f) {
    inv.push_back(Tuple({Value("alpha"), Value(f)}));
  }
  for (uint64_t f = 0; f < 5; ++f) {
    inv.push_back(Tuple({Value("beta"), Value(f)}));
  }
  c.piers[0]->PublishBatch(InvSchema(), std::move(inv));
  c.piers[0]->FlushPublishQueues();
  c.simulator.Run();

  std::vector<Tuple> top = c.RunPlan(AlphaJoinBeta().TopK(7, 3).Build());
  ASSERT_EQ(top.size(), 3u);
  for (const Tuple& t : top) EXPECT_LT(t.at(0).AsUint64(), 5u);

  std::vector<Tuple> projected =
      c.RunPlan(AlphaJoinBeta().Project({7}).Build());
  ASSERT_EQ(projected.size(), 5u);
  for (const Tuple& t : projected) EXPECT_EQ(t, Tuple({Value()}));

  std::vector<Tuple> groups = c.RunPlan(
      AlphaJoinBeta()
          .GroupAggregate({7}, {AggregateSpec{AggregateSpec::kCount, 0}})
          .Build());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], Tuple({Value(), Value(uint64_t{5})}));
}

TEST(PlanExecTest, UncompilablePlanFailsFast) {
  Cluster c(8);
  PublishCorpus(&c);
  QueryPlan bad = PlanBuilder()
                      .IndexScan("inverted", Value("madonna"))
                      .TopK(0, 3)
                      .RehashJoin("inverted", Value("prayer"))
                      .Build();
  Status status = Status::OK();
  c.RunPlan(std::move(bad), &status);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(PlanExecTest, PlanSurvivesWireRoundTripBeforeExecution) {
  // A plan built here, serialized, decoded elsewhere, and executed must
  // answer exactly like the original object — the end-to-end proof that
  // plans (with their Expr trees) really are wire-portable.
  Cluster c(16);
  PublishCorpus(&c);
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted_cache", Value("madonna"))
                       .Filter(Expr::Contains(Expr::Column(2), "studio"))
                       .Project({1})
                       .Build();
  auto decoded = QueryPlan::Deserialize(plan.Serialize());
  ASSERT_TRUE(decoded.ok());
  std::set<uint64_t> a, b;
  for (const Tuple& t : c.RunPlan(plan)) a.insert(t.at(0).AsUint64());
  for (const Tuple& t : c.RunPlan(decoded.value())) {
    b.insert(t.at(0).AsUint64());
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 60u);  // the odd "studio" half of 120
}

TEST(PlanExecTest, FetchPlanCapsDistinctJoinKeys) {
  // Duplicate join keys must not use up a FetchJoin plan's answer cap:
  // both caps (last stage, query-node accumulator) count distinct keys.
  auto item = [](uint64_t id) {
    return Tuple({Value(id), Value("file " + std::to_string(id)),
                  Value(uint64_t{1000 + id})});
  };
  auto fetched_ids = [](const std::vector<Tuple>& rows) {
    std::set<uint64_t> ids;
    for (const Tuple& t : rows) ids.insert(t.at(0).AsUint64());
    return ids;
  };

  // Single stage: fileIDs 1, 1, 1, 2 under one key.
  Cluster single(16);
  std::vector<Tuple> cache;
  for (uint64_t id : {1, 1, 1, 2}) {
    cache.push_back(Tuple({Value("dup"), Value(id),
                           Value("take " + std::to_string(cache.size()))}));
  }
  single.Publish(CacheSchema(), std::move(cache));
  single.Publish(ItemSchema(), {item(1), item(2)});
  QueryPlan one = PlanBuilder()
                      .IndexScan("inverted_cache", Value("dup"))
                      .FetchJoin("item")
                      .Limit(2)
                      .Build();
  EXPECT_EQ(fetched_ids(single.RunPlan(std::move(one))),
            (std::set<uint64_t>{1, 2}));

  // Two stages, two rows per chunk: stage 0's fileIDs 1, 1, 1, 1, 2, 2
  // reach the last stage as three chunks, so the query node accumulates
  // three replies, each holding one key.
  BatchOptions small;
  small.max_stage_entries = 2;
  Cluster chained(16, small);
  cache.clear();
  for (uint64_t id : {1, 1, 1, 1, 2, 2}) {
    cache.push_back(Tuple({Value("dup"), Value(id),
                           Value("take " + std::to_string(cache.size()))}));
  }
  chained.Publish(CacheSchema(), std::move(cache));
  chained.Publish(InvSchema(), {Tuple({Value("other"), Value(uint64_t{1})}),
                                Tuple({Value("other"), Value(uint64_t{2})})});
  chained.Publish(ItemSchema(), {item(1), item(2)});
  QueryPlan two = PlanBuilder()
                      .IndexScan("inverted_cache", Value("dup"))
                      .RehashJoin("inverted", Value("other"))
                      .FetchJoin("item")
                      .Limit(2)
                      .Build();
  EXPECT_EQ(fetched_ids(chained.RunPlan(std::move(two))),
            (std::set<uint64_t>{1, 2}));
  EXPECT_EQ(chained.metrics.posting_entries_shipped, 6u);
}

TEST(PlanExecTest, FinisherRowsAreExact) {
  // The exact rows, order included, of the finisher shapes: ties through
  // TopK both ways, a two-column GroupAggregate with every aggregate, a
  // Project past the row's arity, a Filter across value types, and a
  // Limit below a TopK. Rows reach the finishers as [id, score, grp, tag].
  Cluster c(16);
  std::vector<Tuple> scores;
  for (uint64_t id = 0; id < 12; ++id) {
    scores.push_back(Tuple({Value("k"), Value(id), Value(id % 4),
                            Value(static_cast<int64_t>(id % 3) - 1),
                            Value(id % 2 == 0 ? "even" : "odd")}));
  }
  c.Publish(ScoresSchema(), std::move(scores));
  auto rows_of = [&c](PlanBuilder& b) {
    std::vector<std::string> out;
    for (const Tuple& t : c.RunPlan(b.Build())) out.push_back(t.ToString());
    return out;
  };
  auto scan = [](std::vector<uint32_t> payload) {
    PlanBuilder b;
    b.IndexScan("scores", Value("k")).Project(std::move(payload));
    return b;
  };

  using Rows = std::vector<std::string>;

  PlanBuilder top_desc = scan({2, 3, 4});
  top_desc.TopK(1, 5, /*descending=*/true);
  EXPECT_EQ(rows_of(top_desc), (Rows{"(11, 3, 1, odd)", "(3, 3, -1, odd)",
                                     "(7, 3, 0, odd)", "(10, 2, 0, even)",
                                     "(6, 2, -1, even)"}));

  PlanBuilder top_asc = scan({2, 3, 4});
  top_asc.TopK(1, 5, /*descending=*/false);
  EXPECT_EQ(rows_of(top_asc), (Rows{"(8, 0, 1, even)", "(4, 0, 0, even)",
                                    "(0, 0, -1, even)", "(5, 1, 1, odd)",
                                    "(1, 1, 0, odd)"}));

  PlanBuilder groups = scan({2, 3, 4});
  groups.GroupAggregate({2, 3}, {AggregateSpec{AggregateSpec::kCount, 0},
                                 AggregateSpec{AggregateSpec::kSum, 1},
                                 AggregateSpec{AggregateSpec::kMin, 2},
                                 AggregateSpec{AggregateSpec::kMax, 0},
                                 AggregateSpec{AggregateSpec::kAvg, 1}});
  EXPECT_EQ(rows_of(groups),
            (Rows{"(-1, even, 2, 2.000000, -1.000000, 6.000000, 1.000000)",
                  "(0, odd, 2, 4.000000, 0.000000, 7.000000, 2.000000)",
                  "(1, even, 2, 2.000000, 1.000000, 8.000000, 1.000000)",
                  "(-1, odd, 2, 4.000000, -1.000000, 9.000000, 2.000000)",
                  "(0, even, 2, 2.000000, 0.000000, 10.000000, 1.000000)",
                  "(1, odd, 2, 4.000000, 1.000000, 11.000000, 2.000000)"}));

  PlanBuilder wide = scan({2, 3});
  wide.Limit(4).Project({0, 2, 6});
  EXPECT_EQ(rows_of(wide),
            (Rows{"(0, -1, 0)", "(1, 0, 0)", "(2, 1, 0)", "(3, -1, 0)"}));

  PlanBuilder mixed = scan({2, 3, 4});
  mixed.Limit(100).Filter(Expr::And(
      {Expr::Lt(Expr::Column(1), Expr::Literal(Value(2.5))),
       Expr::Ne(Expr::Column(3), Expr::Literal(Value(uint64_t{0}))),
       Expr::Ge(Expr::Column(2), Expr::Literal(Value(uint64_t{0})))}));
  EXPECT_EQ(rows_of(mixed), (Rows{"(1, 1, 0, odd)", "(2, 2, 1, even)",
                                  "(4, 0, 0, even)", "(5, 1, 1, odd)",
                                  "(8, 0, 1, even)", "(10, 2, 0, even)"}));

  PlanBuilder cut = scan({2, 3, 4});
  cut.Limit(7).TopK(1, 3);
  EXPECT_EQ(rows_of(cut), (Rows{"(3, 3, -1, odd)", "(6, 2, -1, even)",
                                "(2, 2, 1, even)"}));
}

}  // namespace
}  // namespace pierstack::pier
