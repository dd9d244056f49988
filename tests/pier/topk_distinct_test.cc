#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "pier/ops.h"

namespace pierstack::pier {
namespace {

std::vector<Tuple> Rows(std::initializer_list<uint64_t> keys) {
  std::vector<Tuple> out;
  for (uint64_t k : keys) out.push_back(Tuple({Value(k)}));
  return out;
}

TEST(TopKTest, DescendingTakesLargest) {
  auto got = TopK(Rows({5, 1, 9, 3, 7}), 0, 3, /*descending=*/true);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].at(0).AsUint64(), 9u);
  EXPECT_EQ(got[1].at(0).AsUint64(), 7u);
  EXPECT_EQ(got[2].at(0).AsUint64(), 5u);
}

TEST(TopKTest, AscendingTakesSmallest) {
  auto got = TopK(Rows({5, 1, 9, 3, 7}), 0, 2, /*descending=*/false);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].at(0).AsUint64(), 1u);
  EXPECT_EQ(got[1].at(0).AsUint64(), 3u);
}

TEST(TopKTest, KLargerThanInput) {
  auto got = TopK(Rows({2, 1}), 0, 10, true);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].at(0).AsUint64(), 2u);
}

TEST(TopKTest, KZeroEmpty) {
  EXPECT_TRUE(TopK(Rows({1, 2, 3}), 0, 0, true).empty());
}

// Property: TopK over random data equals sort-then-truncate.
class TopKProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKProperty, MatchesSortTruncate) {
  Rng rng(GetParam());
  std::vector<Tuple> rows;
  size_t n = 50 + rng.NextBelow(100);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value(rng.NextBelow(1000))}));
  }
  size_t k = 1 + rng.NextBelow(20);
  std::vector<uint64_t> expect;
  for (const auto& t : rows) expect.push_back(t.at(0).AsUint64());
  std::sort(expect.rbegin(), expect.rend());
  expect.resize(std::min(k, expect.size()));

  auto got = TopK(std::move(rows), 0, k, true);
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].at(0).AsUint64(), expect[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace pierstack::pier
