// Robustness: the wire decoders must fail cleanly (never crash, never
// accept garbage silently) on malformed input, and whatever the query
// plane's decoders accept must be safe to compile and run.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "pier/plan_exec.h"
#include "pier/schema.h"
#include "pier/tuple_batch.h"
#include "random_plan.h"

namespace pierstack::pier {
namespace {

std::vector<uint8_t> RandomBytes(Rng* rng, size_t max_len) {
  std::vector<uint8_t> bytes(rng->NextBelow(max_len + 1));
  for (auto& b : bytes) b = static_cast<uint8_t>(rng->NextBelow(256));
  return bytes;
}

/// 50 rows of arity 0-4 with mixed value types.
std::vector<Tuple> RandomRows(Rng* rng) {
  std::vector<Tuple> rows;
  for (int i = 0; i < 50; ++i) {
    std::vector<Value> vals;
    size_t arity = rng->NextBelow(5);
    for (size_t c = 0; c < arity; ++c) vals.push_back(RandomValue(rng));
    rows.push_back(Tuple(std::move(vals)));
  }
  return rows;
}

TEST(FuzzTest, TupleDeserializeRandomBytesNeverCrashes) {
  Rng rng(0xf00d);
  size_t ok = 0, corrupt = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    size_t len = rng.NextBelow(64);
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextBelow(256));
    auto result = Tuple::Deserialize(junk);
    if (result.ok()) {
      ++ok;
      // Anything accepted must re-serialize to a valid tuple again.
      auto round = Tuple::Deserialize(result.value().Serialize());
      ASSERT_TRUE(round.ok());
      EXPECT_EQ(round.value(), result.value());
    } else {
      ++corrupt;
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    }
  }
  // Both outcomes occur over 5000 random buffers.
  EXPECT_GT(corrupt, 0u);
  EXPECT_GT(ok, 0u);  // e.g. the empty-tuple encoding [0x00]
}

TEST(FuzzTest, TruncatedValidTuplesAreCorrupt) {
  Tuple t({Value(uint64_t{123456}), Value(std::string("filename.mp3")),
           Value(2.5)});
  auto bytes = t.Serialize();
  for (size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(cut));
    auto r = Tuple::Deserialize(prefix);
    if (r.ok()) {
      // A shorter valid tuple is possible only if the prefix happens to
      // be self-delimiting; it must then be internally consistent.
      EXPECT_LE(r.value().WireSize(), cut);
    }
  }
}

TEST(FuzzTest, RandomTuplesRoundTrip) {
  Rng rng(0xcafe);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Value> vals;
    size_t arity = rng.NextBelow(6);
    for (size_t i = 0; i < arity; ++i) {
      switch (rng.NextBelow(4)) {
        case 0:
          vals.push_back(Value(rng.Next()));
          break;
        case 1:
          vals.push_back(Value(static_cast<int64_t>(rng.Next())));
          break;
        case 2:
          vals.push_back(Value(rng.NextDouble() * 1e9));
          break;
        default: {
          std::string s;
          size_t len = rng.NextBelow(20);
          for (size_t j = 0; j < len; ++j) {
            s.push_back(static_cast<char>(rng.NextBelow(256)));
          }
          vals.push_back(Value(std::move(s)));
        }
      }
    }
    Tuple t(std::move(vals));
    auto bytes = t.Serialize();
    ASSERT_EQ(bytes.size(), t.WireSize());
    auto back = Tuple::Deserialize(bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), t);
  }
}

TEST(FuzzTest, ReaderNeverReadsPastEnd) {
  Rng rng(0xbeef);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng.NextBelow(32);
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextBelow(256));
    BytesReader r(junk);
    // Issue a random sequence of reads; remaining() must stay consistent.
    for (int op = 0; op < 8; ++op) {
      size_t before = r.remaining();
      switch (rng.NextBelow(5)) {
        case 0:
          (void)r.GetU8();
          break;
        case 1:
          (void)r.GetU32();
          break;
        case 2:
          (void)r.GetU64();
          break;
        case 3:
          (void)r.GetVarint();
          break;
        default:
          (void)r.GetString();
          break;
      }
      EXPECT_LE(r.remaining(), before);
    }
  }
}

TEST(FuzzTest, AcceptedPlansCompileAndRunTheirFinishers) {
  // Random bytes, then single-byte mutations of valid plans: the decoder
  // rejects with kCorruption or hands over a plan that compiles (or is
  // refused as InvalidArgument), whose finishers then run over any rows.
  Rng rng(0x91a7);
  std::vector<Tuple> rows = RandomRows(&rng);
  size_t accepted = 0, compiled = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    std::vector<uint8_t> image;
    if (trial < 5000) {
      image = RandomBytes(&rng, 96);
    } else {
      image = RandomPlan(&rng).Serialize();
      image[rng.NextBelow(image.size())] =
          static_cast<uint8_t>(rng.NextBelow(256));
    }
    auto plan = QueryPlan::Deserialize(image);
    if (!plan.ok()) {
      ASSERT_EQ(plan.status().code(), StatusCode::kCorruption) << trial;
      continue;
    }
    ++accepted;
    auto cp = CompilePlan(plan.value());
    if (!cp.ok()) {
      ASSERT_EQ(cp.status().code(), StatusCode::kInvalidArgument) << trial;
      continue;
    }
    ++compiled;
    ApplyFinishers(rows, cp.value().entry_ops);
    ApplyFinishers(rows, cp.value().tuple_ops);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(compiled, 0u);
}

TEST(FuzzTest, AcceptedExprsEvaluateOverAnyRow) {
  Rng rng(0xe4a1);
  std::vector<Tuple> rows = RandomRows(&rng);
  size_t accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<uint8_t> image = RandomBytes(&rng, 48);
    BytesReader r(image);
    auto expr = Expr::Deserialize(&r);
    if (!expr.ok()) {
      ASSERT_EQ(expr.status().code(), StatusCode::kCorruption) << trial;
      continue;
    }
    ++accepted;
    for (const Tuple& row : rows) {
      expr.value().Eval(row);
      expr.value().Matches(row);
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(FuzzTest, LossyBatchDecodeSalvagesOnlyStrictlyDecodableTuples) {
  Rng rng(0xba7c);
  size_t salvaged_any = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<uint8_t> image = RandomBytes(&rng, 64);
    size_t dropped = 0;
    std::vector<Tuple> salvaged =
        TupleBatch::DeserializeLossy(image, &dropped).TakeTuples();
    if (!salvaged.empty()) ++salvaged_any;
    auto back = TupleBatch::Deserialize(TupleBatch(salvaged).Serialize());
    ASSERT_TRUE(back.ok()) << trial << ": " << back.status().ToString();
    ASSERT_EQ(back.value().size(), salvaged.size()) << trial;
    for (size_t i = 0; i < salvaged.size(); ++i) {
      // Compared as bytes: a salvaged double may be a NaN, which no Value
      // compares equal to.
      EXPECT_EQ(back.value()[i].Serialize(), salvaged[i].Serialize())
          << trial;
    }
  }
  EXPECT_GT(salvaged_any, 0u);
}

}  // namespace
}  // namespace pierstack::pier
