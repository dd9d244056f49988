#include "pier/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "pier/plan_exec.h"

namespace pierstack::pier {
namespace {

Tuple T2(uint64_t a, uint64_t b) {
  return Tuple({Value(a), Value(b)});
}

std::vector<Tuple> MakeRows(std::initializer_list<std::pair<uint64_t, uint64_t>> rows) {
  std::vector<Tuple> out;
  for (auto [a, b] : rows) out.push_back(T2(a, b));
  return out;
}

PlanNode Finisher(PlanNode::Kind kind) {
  PlanNode n;
  n.kind = kind;
  return n;
}

PlanNode FilterNode(Expr predicate) {
  PlanNode n = Finisher(PlanNode::Kind::kFilter);
  n.expr = std::move(predicate);
  return n;
}

PlanNode ProjectNode(std::vector<uint32_t> cols) {
  PlanNode n = Finisher(PlanNode::Kind::kProject);
  n.cols = std::move(cols);
  return n;
}

PlanNode LimitNode(uint64_t limit) {
  PlanNode n = Finisher(PlanNode::Kind::kLimit);
  n.n = limit;
  return n;
}

TEST(OpsTest, FilterKeepsMatchingRowsInOrder) {
  auto got = ApplyFinishers(
      MakeRows({{1, 2}, {3, 4}, {5, 6}}),
      {FilterNode(Expr::Ge(Expr::Column(0),
                           Expr::Literal(Value(uint64_t{3}))))});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], T2(3, 4));
  EXPECT_EQ(got[1], T2(5, 6));
}

TEST(OpsTest, ProjectReordersColumns) {
  auto got = ApplyFinishers(MakeRows({{1, 2}}), {ProjectNode({1, 0, 1})});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Tuple({Value(uint64_t{2}), Value(uint64_t{1}),
                           Value(uint64_t{2})}));
}

TEST(OpsTest, LimitStopsEarly) {
  EXPECT_EQ(
      ApplyFinishers(MakeRows({{1, 1}, {2, 2}, {3, 3}}), {LimitNode(2)}).size(),
      2u);
}

TEST(OpsTest, LimitZero) {
  EXPECT_TRUE(ApplyFinishers(MakeRows({{1, 1}}), {LimitNode(0)}).empty());
}

TEST(OpsTest, HashJoinBasic) {
  // R(a,b) join S(c,d) on b = c.
  auto got = HashJoin(MakeRows({{1, 10}, {2, 20}, {3, 10}}),
                      MakeRows({{10, 100}, {30, 300}}), 1, 0);
  ASSERT_EQ(got.size(), 2u);
  for (const auto& t : got) {
    EXPECT_EQ(t.arity(), 4u);
    EXPECT_EQ(t.at(1), t.at(2));
  }
}

TEST(OpsTest, HashJoinEmptyInputs) {
  EXPECT_TRUE(HashJoin({}, MakeRows({{1, 1}}), 0, 0).empty());
}

TEST(OpsTest, HashJoinDuplicatesMultiply) {
  // 2 x 2 cross on key 5, each left row's matches last-built first.
  auto got = HashJoin(MakeRows({{1, 5}, {2, 5}}), MakeRows({{5, 7}, {5, 8}}),
                      1, 0);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], Tuple::Concat(T2(1, 5), T2(5, 8)));
  EXPECT_EQ(got[1], Tuple::Concat(T2(1, 5), T2(5, 7)));
  EXPECT_EQ(got[2], Tuple::Concat(T2(2, 5), T2(5, 8)));
  EXPECT_EQ(got[3], Tuple::Concat(T2(2, 5), T2(5, 7)));
}

TEST(ShjTest, ProducesJoinsIncrementally) {
  SymmetricHashJoin shj(1, 0);
  EXPECT_TRUE(shj.InsertLeft(T2(1, 10)).empty());   // nothing on right yet
  auto out = shj.InsertRight(T2(10, 100));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].arity(), 4u);
  // Another left match joins against the stored right tuple.
  auto out2 = shj.InsertLeft(T2(2, 10));
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0].at(0).AsUint64(), 2u);
}

TEST(ShjTest, OutputOrderIsAlwaysLeftThenRight) {
  SymmetricHashJoin shj(0, 0);
  shj.InsertRight(Tuple({Value(std::string("k")), Value(std::string("R"))}));
  auto out =
      shj.InsertLeft(Tuple({Value(std::string("k")), Value(std::string("L"))}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(1).AsString(), "L");
  EXPECT_EQ(out[0].at(3).AsString(), "R");
}

TEST(ShjTest, NoFalseMatchesOnHashCollisions) {
  // Different string keys never join even if the table is tiny.
  SymmetricHashJoin shj(0, 0);
  shj.InsertLeft(Tuple({Value(std::string("alpha"))}));
  EXPECT_TRUE(shj.InsertRight(Tuple({Value(std::string("beta"))})).empty());
}

TEST(ShjTest, No64BitHashCollisionFalseMatch) {
  // uint64 x and int64 y hash identically when x == y ^ 0x11 (the int64
  // hash mixes in 0x11), giving a genuine engineered 64-bit collision.
  // The join must bucket them together yet reject the value mismatch.
  Value left_key{uint64_t{0x12}};
  Value right_key{int64_t{3}};
  ASSERT_EQ(left_key.Hash(), right_key.Hash());
  ASSERT_FALSE(left_key == right_key);

  SymmetricHashJoin shj(0, 0);
  EXPECT_TRUE(shj.InsertLeft(Tuple({left_key, Value(uint64_t{1})})).empty());
  EXPECT_TRUE(
      shj.InsertRight(Tuple({right_key, Value(uint64_t{2})})).empty());
  // Equal keys on the colliding bucket still join.
  auto out = shj.InsertRight(Tuple({left_key, Value(uint64_t{3})}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(3).AsUint64(), 3u);
}

TEST(ShjTest, ReserveKeepsResultsIdentical) {
  SymmetricHashJoin plain(1, 0), reserved(1, 0);
  reserved.Reserve(64, 64);
  std::vector<Tuple> out_plain, out_reserved;
  for (uint64_t i = 0; i < 64; ++i) {
    auto a = plain.InsertLeft(T2(i, i % 8));
    auto b = reserved.InsertLeft(T2(i, i % 8));
    ASSERT_EQ(a.size(), b.size());
    auto c = plain.InsertRight(T2(i % 8, i));
    auto d = reserved.InsertRight(T2(i % 8, i));
    ASSERT_EQ(c.size(), d.size());
  }
  EXPECT_EQ(plain.left_size(), reserved.left_size());
}

TEST(JoinTableTest, DuplicateHashChainsSurviveGrowth) {
  // Many entries under one hash force probing chains across several slot
  // regrowths; every stored tuple must stay reachable.
  JoinTable table;
  const uint64_t kHash = 0xdeadbeefULL;
  for (uint64_t i = 0; i < 100; ++i) {
    table.Insert(kHash, T2(i, i));
    table.Insert(kHash + 1 + i, T2(900 + i, i));  // interleaved noise
  }
  size_t seen = 0;
  table.ForEachMatch(kHash, [&](const Tuple& t) {
    EXPECT_LT(t.at(0).AsUint64(), 100u);
    ++seen;
  });
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(table.CountHash(kHash), 100u);
  EXPECT_EQ(table.size(), 200u);
}

// Property: streaming SHJ over random insert orders produces exactly the
// same join result as the blocking HashJoin.
class ShjEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShjEquivalence, MatchesHashJoinOnRandomData) {
  Rng rng(GetParam());
  std::vector<Tuple> left, right;
  for (int i = 0; i < 60; ++i) {
    left.push_back(T2(rng.NextBelow(30), rng.NextBelow(10)));
    right.push_back(T2(rng.NextBelow(10), rng.NextBelow(30)));
  }
  // Reference: blocking hash join on left.1 == right.0.
  auto expected = HashJoin(left, right, 1, 0);

  // Streaming: interleave inserts in a random order.
  SymmetricHashJoin shj(1, 0);
  std::vector<Tuple> got;
  size_t li = 0, ri = 0;
  while (li < left.size() || ri < right.size()) {
    bool take_left = ri >= right.size() ||
                     (li < left.size() && rng.NextBernoulli(0.5));
    auto out = take_left ? shj.InsertLeft(left[li++])
                         : shj.InsertRight(right[ri++]);
    got.insert(got.end(), out.begin(), out.end());
  }
  ASSERT_EQ(got.size(), expected.size());
  auto key = [](const Tuple& t) { return t.ToString(); };
  std::multiset<std::string> a, b;
  for (const auto& t : expected) a.insert(key(t));
  for (const auto& t : got) b.insert(key(t));
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShjEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(OpsTest, ComposedPipeline) {
  // SELECT b FROM R JOIN S ON R.b = S.c WHERE S.d > 150 LIMIT 2
  auto join = HashJoin(MakeRows({{1, 10}, {2, 20}, {3, 30}, {4, 10}}),
                       MakeRows({{10, 100}, {20, 200}, {30, 300}}), 1, 0);
  auto got = ApplyFinishers(
      std::move(join),
      {FilterNode(Expr::Gt(Expr::Column(3),
                           Expr::Literal(Value(uint64_t{150})))),
       ProjectNode({1}), LimitNode(2)});
  EXPECT_EQ(got.size(), 2u);
  for (const auto& t : got) EXPECT_EQ(t.arity(), 1u);
}

}  // namespace
}  // namespace pierstack::pier
