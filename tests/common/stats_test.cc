#include "common/stats.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace pierstack {
namespace {

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(SummaryTest, EmptyMeanZero) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(SummaryTest, PercentilesInterpolate) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_NEAR(s.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 1e-9);
}

TEST(SummaryTest, AddAfterPercentileStillCorrect) {
  Summary s;
  s.Add(10);
  s.Add(20);
  EXPECT_DOUBLE_EQ(s.Median(), 15.0);
  s.Add(0);
  EXPECT_DOUBLE_EQ(s.Median(), 10.0);
}

TEST(SummaryTest, AddN) {
  Summary s;
  s.AddN(4.0, 3);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

TEST(CdfTest, EmpiricalCdfMonotone) {
  auto cdf = EmpiricalCdf({3, 1, 2, 2, 5});
  ASSERT_EQ(cdf.size(), 4u);  // distinct values 1,2,3,5
  EXPECT_DOUBLE_EQ(cdf[0].x, 1);
  EXPECT_DOUBLE_EQ(cdf[0].cum_fraction, 0.2);
  EXPECT_DOUBLE_EQ(cdf[1].x, 2);
  EXPECT_DOUBLE_EQ(cdf[1].cum_fraction, 0.6);
  EXPECT_DOUBLE_EQ(cdf.back().x, 5);
  EXPECT_DOUBLE_EQ(cdf.back().cum_fraction, 1.0);
}

TEST(CdfTest, EmptyInput) { EXPECT_TRUE(EmpiricalCdf({}).empty()); }

TEST(CdfTest, FractionAtOrBelow) {
  std::vector<double> s{0, 0, 1, 5, 10};
  EXPECT_DOUBLE_EQ(FractionAtOrBelow(s, 0), 0.4);
  EXPECT_DOUBLE_EQ(FractionAtOrBelow(s, 4), 0.6);
  EXPECT_DOUBLE_EQ(FractionAtOrBelow(s, 100), 1.0);
  EXPECT_DOUBLE_EQ(FractionAtOrBelow({}, 1), 0.0);
}

TEST(LogHistogramTest, BucketsPowersOfTwo) {
  LogHistogram h(2.0);
  h.Add(0);  // [0]
  h.Add(1);  // [1]
  h.Add(2);  // (1,2]
  h.Add(3);  // (2,4]
  h.Add(4);  // (2,4]
  h.Add(5);  // (4,8]
  auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 5u);
  EXPECT_DOUBLE_EQ(buckets[0].lo, 0);
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_DOUBLE_EQ(buckets[1].lo, 1);
  EXPECT_DOUBLE_EQ(buckets[1].hi, 1);
  EXPECT_EQ(buckets[1].count, 1u);
  EXPECT_DOUBLE_EQ(buckets[2].hi, 2);
  EXPECT_EQ(buckets[2].count, 1u);
  EXPECT_DOUBLE_EQ(buckets[3].lo, 2);
  EXPECT_DOUBLE_EQ(buckets[3].hi, 4);
  EXPECT_EQ(buckets[3].count, 2u);
  EXPECT_DOUBLE_EQ(buckets[4].hi, 8);
  EXPECT_EQ(buckets[4].count, 1u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(LogHistogramTest, LargeValues) {
  LogHistogram h(10.0);
  h.Add(999);
  h.Add(1000);
  h.Add(1001);
  auto buckets = h.buckets();
  // 999 and 1000 in (100, 1000]; 1001 in (1000, 10000].
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_EQ(buckets[1].count, 1u);
}

TEST(MeanByGroupTest, GroupsAndAverages) {
  auto rows = MeanByGroup({{1, 10}, {1, 20}, {2, 5}, {3, 0}, {2, 15}});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].first, 1);
  EXPECT_DOUBLE_EQ(rows[0].second, 15);
  EXPECT_DOUBLE_EQ(rows[1].first, 2);
  EXPECT_DOUBLE_EQ(rows[1].second, 10);
  EXPECT_DOUBLE_EQ(rows[2].first, 3);
  EXPECT_DOUBLE_EQ(rows[2].second, 0);
}

TEST(MeanByGroupTest, Empty) { EXPECT_TRUE(MeanByGroup({}).empty()); }

TEST(CounterSetTest, SetOverwritesAndLookup) {
  CounterSet counters;
  EXPECT_FALSE(counters.Has("pier.adaptive_flushes"));
  EXPECT_EQ(counters.Value("pier.adaptive_flushes"), 0u);
  counters.Set("pier.adaptive_flushes", 7);
  counters.Set("pier.adaptive_flushes", 10);  // an export overwrites
  counters.Set("dht.replica_peels", 1);
  EXPECT_TRUE(counters.Has("pier.adaptive_flushes"));
  EXPECT_EQ(counters.Value("pier.adaptive_flushes"), 10u);
  EXPECT_EQ(counters.Value("dht.replica_peels"), 1u);
  ASSERT_EQ(counters.entries().size(), 2u);
  // entries() is name-sorted: stable iteration for reports.
  EXPECT_EQ(counters.entries().begin()->first, "dht.replica_peels");
}

TEST(RelaxedCounterTest, ConcurrentBumpsAndUintCompat) {
  RelaxedCounter c;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) ++c;
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), 40000u);
  c += 2;
  uint64_t as_int = c;  // implicit conversion keeps old readers working
  EXPECT_EQ(as_int, 40002u);
  RelaxedCounter copy = c;
  EXPECT_EQ(copy.value(), 40002u);
}

TEST(RelaxedMaxTest, ConcurrentUpdatesKeepMax) {
  RelaxedMax m;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&m, t] {
      for (uint64_t i = 0; i < 5000; ++i) m.Update(i * 4 + t);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(m.value(), 4999u * 4 + 3);
  m.Update(7);  // lower value never regresses the max
  EXPECT_EQ(m.value(), 4999u * 4 + 3);
}

}  // namespace
}  // namespace pierstack
