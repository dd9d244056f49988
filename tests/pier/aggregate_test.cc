#include <gtest/gtest.h>

#include <algorithm>

#include "pier/ops.h"
#include "pier/plan_exec.h"

namespace pierstack::pier {
namespace {

std::vector<Tuple> Rows(
    std::initializer_list<std::pair<uint64_t, uint64_t>> rows) {
  std::vector<Tuple> out;
  for (auto [a, b] : rows) out.push_back(Tuple({Value(a), Value(b)}));
  return out;
}

std::vector<Tuple> RunGroupBy(const std::vector<Tuple>& input,
                              const std::vector<uint32_t>& group_cols,
                              const std::vector<AggregateSpec>& aggs) {
  auto got = GroupAggregate(input, group_cols, aggs);
  std::sort(got.begin(), got.end(), [](const Tuple& a, const Tuple& b) {
    return a.at(0).ToString() < b.at(0).ToString();
  });
  return got;
}

TEST(GroupByTest, CountPerGroup) {
  auto got = RunGroupBy(Rows({{1, 10}, {1, 20}, {2, 30}}), {0},
                        {{AggregateSpec::kCount, 0}});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].at(0).AsUint64(), 1u);
  EXPECT_EQ(got[0].at(1).AsUint64(), 2u);
  EXPECT_EQ(got[1].at(0).AsUint64(), 2u);
  EXPECT_EQ(got[1].at(1).AsUint64(), 1u);
}

TEST(GroupByTest, SumMinMax) {
  auto got = RunGroupBy(Rows({{1, 10}, {1, 30}, {1, 20}}), {0},
                        {{AggregateSpec::kSum, 1},
                         {AggregateSpec::kMin, 1},
                         {AggregateSpec::kMax, 1}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].at(1).AsDouble(), 60.0);
  EXPECT_DOUBLE_EQ(got[0].at(2).AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(got[0].at(3).AsDouble(), 30.0);
}

TEST(GroupByTest, Average) {
  auto got = RunGroupBy(Rows({{7, 10}, {7, 20}}), {0},
                        {{AggregateSpec::kAvg, 1}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].at(1).AsDouble(), 15.0);
}

TEST(GroupByTest, EmptyInputNoGroups) {
  auto got = RunGroupBy({}, {0}, {{AggregateSpec::kCount, 0}});
  EXPECT_TRUE(got.empty());
}

TEST(GroupByTest, GlobalAggregateWithNoGroupCols) {
  auto got = GroupAggregate(Rows({{1, 5}, {2, 6}, {3, 7}}), {},
                            {{AggregateSpec::kCount, 0},
                             {AggregateSpec::kSum, 1}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].at(0).AsUint64(), 3u);
  EXPECT_DOUBLE_EQ(got[0].at(1).AsDouble(), 18.0);
}

TEST(GroupByTest, StringGroupKeys) {
  std::vector<Tuple> input;
  for (const char* artist : {"abba", "abba", "beatles"}) {
    input.push_back(Tuple({Value(std::string(artist)), Value(uint64_t{1})}));
  }
  auto got = RunGroupBy(input, {0}, {{AggregateSpec::kCount, 0}});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].at(0).AsString(), "abba");
  EXPECT_EQ(got[0].at(1).AsUint64(), 2u);
}

TEST(GroupByTest, MultiColumnKeys) {
  std::vector<Tuple> input{
      Tuple({Value(uint64_t{1}), Value(uint64_t{1}), Value(uint64_t{100})}),
      Tuple({Value(uint64_t{1}), Value(uint64_t{2}), Value(uint64_t{200})}),
      Tuple({Value(uint64_t{1}), Value(uint64_t{1}), Value(uint64_t{300})}),
  };
  auto got = GroupAggregate(input, {0, 1}, {{AggregateSpec::kSum, 2}});
  EXPECT_EQ(got.size(), 2u);
}

TEST(GroupByTest, ComposesWithFilterAndLimit) {
  // COUNT(*) of values > 15, grouped by key, limit 1 group.
  PlanNode filter;
  filter.kind = PlanNode::Kind::kFilter;
  filter.expr =
      Expr::Gt(Expr::Column(1), Expr::Literal(Value(uint64_t{15})));
  PlanNode agg;
  agg.kind = PlanNode::Kind::kGroupAggregate;
  agg.cols = {0};
  agg.aggs = {{AggregateSpec::kCount, 0}};
  PlanNode limit;
  limit.kind = PlanNode::Kind::kLimit;
  limit.n = 1;
  auto got = ApplyFinishers(Rows({{1, 10}, {1, 20}, {2, 30}, {2, 5}}),
                            {filter, agg, limit});
  EXPECT_EQ(got.size(), 1u);
}

TEST(GroupByTest, GroupsComeOutInFirstSeenOrder) {
  auto got = GroupAggregate(Rows({{3, 1}, {1, 1}, {3, 1}, {2, 1}}), {0},
                            {{AggregateSpec::kCount, 0}});
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], Tuple({Value(uint64_t{3}), Value(uint64_t{2})}));
  EXPECT_EQ(got[1], Tuple({Value(uint64_t{1}), Value(uint64_t{1})}));
  EXPECT_EQ(got[2], Tuple({Value(uint64_t{2}), Value(uint64_t{1})}));
}

}  // namespace
}  // namespace pierstack::pier
