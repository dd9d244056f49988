#include "common/hashing.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

namespace pierstack {
namespace {

TEST(HashingTest, Fnv1a64KnownVector) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashingTest, DifferentInputsDiffer) {
  EXPECT_NE(Fnv1a64("madonna"), Fnv1a64("madonn"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("acb"));
}

TEST(HashingTest, SeededChangesValue) {
  EXPECT_NE(Fnv1a64Seeded("abc", 1), Fnv1a64Seeded("abc", 2));
  EXPECT_EQ(Fnv1a64Seeded("abc", 7), Fnv1a64Seeded("abc", 7));
}

TEST(HashingTest, Mix64Avalanches) {
  // Single-bit input changes should flip roughly half the output bits.
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t a = Mix64(0x1234567890abcdefULL);
    uint64_t b = Mix64(0x1234567890abcdefULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  double avg = total_flips / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashingTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(HashingTest, LowCollisionRateOnSequentialStrings) {
  std::unordered_set<uint64_t> seen;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    seen.insert(Fnv1a64("file_" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kN));
}

}  // namespace
}  // namespace pierstack
