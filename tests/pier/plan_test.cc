// QueryPlan / Expr wire round-trips and plan-level passes: randomized
// plans (including Expr trees) must survive serialize→deserialize with
// structural equality, truncated images must fail cleanly, and the
// builder / cost stub / posting-size rewrite must behave on the shapes
// the search engine compiles.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pier/plan.h"
#include "pier/plan_exec.h"
#include "random_plan.h"

namespace pierstack::pier {
namespace {

TEST(PlanWireTest, RandomizedPlansRoundTripStructurally) {
  Rng rng(20260729);
  for (int i = 0; i < 500; ++i) {
    QueryPlan plan = RandomPlan(&rng);
    std::vector<uint8_t> image = plan.Serialize();
    EXPECT_EQ(image.size(), plan.WireSize());
    auto back = QueryPlan::Deserialize(image);
    ASSERT_TRUE(back.ok()) << back.status().ToString() << " at iter " << i;
    EXPECT_EQ(plan, back.value()) << "iter " << i;
    // Round-tripping the round-trip is a fixed point.
    EXPECT_EQ(back.value().Serialize(), image);
  }
}

TEST(PlanWireTest, RandomizedExprsRoundTrip) {
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    Expr e = RandomExpr(&rng, 4);
    BytesWriter w;
    e.SerializeTo(&w);
    EXPECT_EQ(w.size(), e.WireSize());
    std::vector<uint8_t> image = w.Take();
    BytesReader r(image);
    auto back = Expr::Deserialize(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(e, back.value()) << e.ToString();
  }
}

TEST(PlanWireTest, TruncatedImagesFailCleanly) {
  Rng rng(5);
  QueryPlan plan = RandomPlan(&rng);
  std::vector<uint8_t> image = plan.Serialize();
  for (size_t cut = 0; cut < image.size(); cut += 3) {
    std::vector<uint8_t> prefix(image.begin(),
                                image.begin() + static_cast<long>(cut));
    auto r = QueryPlan::Deserialize(prefix);
    // Must not crash; almost every prefix must fail. (A prefix that still
    // parses as a smaller plan is acceptable only if it differs.)
    if (r.ok()) {
      EXPECT_NE(r.value(), plan);
    }
  }
}

TEST(PlanWireTest, ExprEvalSemantics) {
  Tuple t({Value(uint64_t{42}), Value(std::string("Dark Side MOON.mp3")),
           Value(int64_t{-5})});
  EXPECT_TRUE(Expr::Eq(Expr::Column(0), Expr::Literal(Value(uint64_t{42})))
                  .Matches(t));
  EXPECT_TRUE(Expr::Contains(Expr::Column(1), "moon").Matches(t));
  EXPECT_FALSE(Expr::Contains(Expr::Column(1), "vogue").Matches(t));
  EXPECT_TRUE(Expr::Lt(Expr::Column(2), Expr::Literal(Value(uint64_t{0})))
                  .Matches(t));  // cross-type numeric compare widens
  EXPECT_TRUE(Expr::And({Expr::Contains(Expr::Column(1), "dark"),
                         Expr::Contains(Expr::Column(1), "side")})
                  .Matches(t));
  EXPECT_TRUE(Expr::Not(Expr::Contains(Expr::Column(1), "zanzibar"))
                  .Matches(t));
  // Out-of-range columns and type confusion filter, not crash.
  EXPECT_FALSE(Expr::Contains(Expr::Column(9), "x").Matches(t));
  EXPECT_FALSE(Expr::Eq(Expr::Column(0), Expr::Literal(Value("42")))
                   .Matches(t));
}

TEST(PlanCompileTest, SearchShapesCompile) {
  // The distributed-join shape: chain of scans, fetch, limit.
  QueryPlan dj = PlanBuilder()
                     .IndexScan("inverted", Value("madonna"))
                     .RehashJoin("inverted", Value("prayer"))
                     .FetchJoin("item")
                     .Limit(100)
                     .Build();
  auto cdj = CompilePlan(dj);
  ASSERT_TRUE(cdj.ok()) << cdj.status().ToString();
  EXPECT_EQ(cdj.value().staged.stages.size(), 2u);
  EXPECT_TRUE(cdj.value().fetch);
  EXPECT_EQ(cdj.value().fetch_ns, "item");
  EXPECT_EQ(cdj.value().limit, 100u);
  EXPECT_EQ(cdj.value().staged.cap, StagedQuery::Cap::kJoinKeys);

  // The inverted-cache shape: filter + projection push down to the site.
  QueryPlan ic = PlanBuilder()
                     .IndexScan("inverted_cache", Value("madonna"))
                     .Filter(Expr::Contains(Expr::Column(2), "prayer"))
                     .Project({1, 2})
                     .Limit(50)
                     .Build();
  auto cic = CompilePlan(ic);
  ASSERT_TRUE(cic.ok()) << cic.status().ToString();
  ASSERT_EQ(cic.value().staged.stages.size(), 1u);
  const ExecStage& stage = cic.value().staged.stages[0];
  EXPECT_FALSE(stage.filter.is_true());
  EXPECT_EQ(stage.payload_cols, (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(cic.value().entry_ops.empty());
  EXPECT_EQ(cic.value().staged.cap, StagedQuery::Cap::kRows);

  // A TopK above the fetch keeps the full surviving set flowing.
  QueryPlan topk = PlanBuilder()
                       .IndexScan("inverted", Value("madonna"))
                       .RehashJoin("inverted", Value("prayer"))
                       .FetchJoin("item")
                       .TopK(2, 10)
                       .Build();
  auto ctopk = CompilePlan(topk);
  ASSERT_TRUE(ctopk.ok()) << ctopk.status().ToString();
  EXPECT_EQ(ctopk.value().staged.cap, StagedQuery::Cap::kNone);
  EXPECT_EQ(ctopk.value().tuple_ops.size(), 1u);

  // Unsupported shape: a blocking operator feeding a distributed join.
  QueryPlan bad = PlanBuilder()
                      .IndexScan("inverted", Value("a"))
                      .TopK(0, 3)
                      .RehashJoin("inverted", Value("b"))
                      .Build();
  EXPECT_FALSE(CompilePlan(bad).ok());
  EXPECT_FALSE(CompilePlan(QueryPlan{}).ok());
}

TEST(PlanRewriteTest, ChainReordersSmallestFirst) {
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted", Value("huge"))
                       .RehashJoin("inverted", Value("tiny"))
                       .RehashJoin("inverted", Value("middling"))
                       .FetchJoin("item")
                       .Limit(10)
                       .Build();
  std::map<std::string, size_t> sizes{
      {"huge", 900}, {"tiny", 3}, {"middling", 40}};
  EXPECT_TRUE(ReorderByPostingSize(
      &plan, [&](const std::string&, const Value& key) {
        return sizes.at(std::string(key.AsString()));
      }));
  auto compiled = CompilePlan(plan);
  ASSERT_TRUE(compiled.ok());
  const auto& stages = compiled.value().staged.stages;
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].key.AsString(), "tiny");
  EXPECT_EQ(stages[1].key.AsString(), "middling");
  EXPECT_EQ(stages[2].key.AsString(), "huge");
  // Probe targets are exactly the chain keys.
  EXPECT_EQ(CollectProbeTargets(plan).size(), 3u);
}

TEST(PlanRewriteTest, SingleSiteRerootsAtCheapestTerm) {
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted_cache", Value("popular"))
                       .Filter(Expr::And(
                           {Expr::Contains(Expr::Column(2), "gemstone"),
                            Expr::Contains(Expr::Column(2), "vault")}))
                       .Project({1, 2})
                       .Build();
  std::map<std::string, size_t> sizes{
      {"popular", 500}, {"gemstone", 2}, {"vault", 60}};
  auto size_of = [&](const std::string&, const Value& key) {
    return sizes.at(std::string(key.AsString()));
  };
  EXPECT_EQ(CollectProbeTargets(plan).size(), 3u);
  EXPECT_TRUE(ReorderByPostingSize(&plan, size_of));
  auto compiled = CompilePlan(plan);
  ASSERT_TRUE(compiled.ok());
  const ExecStage& stage = compiled.value().staged.stages[0];
  EXPECT_EQ(stage.key.AsString(), "gemstone");
  // The displaced key became a Contains term: both remaining terms filter.
  Tuple hit({Value("gemstone"), Value(uint64_t{1}),
             Value("popular gemstone vault.mp3")});
  Tuple miss({Value("gemstone"), Value(uint64_t{2}),
              Value("gemstone vault only.mp3")});
  EXPECT_TRUE(stage.filter.Matches(hit));
  EXPECT_FALSE(stage.filter.Matches(miss));
  // Already-optimal plans are untouched.
  EXPECT_FALSE(ReorderByPostingSize(&plan, size_of));
}

TEST(PlanCompileTest, InnerLimitStaysPositional) {
  // Limit BELOW TopK cuts the rows TopK sees; only an outermost Limit is
  // hoisted into the staged answer cap.
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inv", Value("a"))
                       .Limit(10)
                       .TopK(0, 5)
                       .Build();
  auto compiled = CompilePlan(plan);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled.value().entry_ops.size(), 2u);
  EXPECT_EQ(compiled.value().entry_ops[0].kind, PlanNode::Kind::kLimit);
  EXPECT_EQ(compiled.value().entry_ops[1].kind, PlanNode::Kind::kTopK);
  EXPECT_EQ(compiled.value().limit, SIZE_MAX);
  EXPECT_EQ(compiled.value().staged.cap, StagedQuery::Cap::kNone);
  // Semantics through the compiled finishers: top-2 of the FIRST 3 rows.
  QueryPlan plan2 = PlanBuilder()
                        .IndexScan("inv", Value("a"))
                        .Limit(3)
                        .TopK(0, 2)
                        .Build();
  auto compiled2 = CompilePlan(plan2);
  ASSERT_TRUE(compiled2.ok());
  std::vector<Tuple> rows;
  for (uint64_t v : {5, 1, 4, 9, 8}) {
    rows.push_back(Tuple({Value(v)}));
  }
  std::vector<Tuple> out =
      ApplyFinishers(std::move(rows), compiled2.value().entry_ops);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].at(0).AsUint64(), 5u);
  EXPECT_EQ(out[1].at(0).AsUint64(), 4u);
}

TEST(PlanCompileTest, RejectsChildIndicesThatDoNotPrecedeTheirParent) {
  // Hand-built pools that break PlanBuilder's invariant must fail to
  // compile, not walk out of range or loop forever.
  auto scan_then = [](PlanNode::Kind kind, std::vector<uint32_t> children) {
    QueryPlan plan = PlanBuilder().IndexScan("inv", Value("a")).Build();
    PlanNode n;
    n.kind = kind;
    n.n = 3;
    n.children = std::move(children);
    plan.nodes.push_back(std::move(n));
    plan.root = 1;
    return plan;
  };
  QueryPlan out_of_range = scan_then(PlanNode::Kind::kLimit, {7});
  QueryPlan self_loop = scan_then(PlanNode::Kind::kFilter, {1});
  // Node 1 points forward at node 2, which points back at the scan.
  QueryPlan forward = scan_then(PlanNode::Kind::kFilter, {2});
  PlanNode limit;
  limit.kind = PlanNode::Kind::kLimit;
  limit.n = 3;
  limit.children = {0};
  forward.nodes.push_back(std::move(limit));
  for (const QueryPlan* plan : {&out_of_range, &self_loop, &forward}) {
    EXPECT_FALSE(plan->ChildrenPrecedeParents());
    auto compiled = CompilePlan(*plan);
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PlanRewriteTest, HeterogeneousChainIsNotPermuted) {
  // Scans over different tables (or column layouts) must never trade
  // keys: a key moved onto another namespace would scan a table it was
  // never published to.
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted", Value("huge"))
                       .RehashJoin("other_table", Value("tiny"))
                       .Build();
  std::map<std::string, size_t> sizes{{"huge", 900}, {"tiny", 3}};
  EXPECT_FALSE(ReorderByPostingSize(
      &plan, [&](const std::string&, const Value& key) {
        return sizes.at(std::string(key.AsString()));
      }));
  auto compiled = CompilePlan(plan);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled.value().staged.stages[0].ns, "inverted");
  EXPECT_EQ(compiled.value().staged.stages[0].key.AsString(), "huge");
}

TEST(PlanWireTest, CyclicImagesAreRejected) {
  // Hand-encode two filter nodes pointing at each other: in-range children
  // but a cycle — the decoder must refuse rather than hand the compiler an
  // unterminating walk.
  QueryPlan plan = PlanBuilder()
                       .IndexScan("inv", Value("a"))
                       .Filter(Expr::True())
                       .Filter(Expr::True())
                       .Build();
  plan.nodes[1].children = {2};  // 1 <-> 2
  std::vector<uint8_t> image = plan.Serialize();
  EXPECT_FALSE(QueryPlan::Deserialize(image).ok());
}

}  // namespace
}  // namespace pierstack::pier
