// Tuple/Value::Materialize: a compacted copy must stop pinning the batch
// decode arena (columns and string blob) while staying value-equal.
#include <gtest/gtest.h>

#include "pier/tuple_batch.h"

namespace pierstack::pier {
namespace {

TupleBatch DecodedPostingBatch(size_t n) {
  TupleBatch batch;
  for (uint64_t i = 0; i < n; ++i) {
    batch.Add(Tuple({Value(std::string("keyword")), Value(i),
                     Value("some track " + std::to_string(i) + ".mp3")}));
  }
  auto image = batch.Serialize();
  auto decoded = TupleBatch::Deserialize(image);
  EXPECT_TRUE(decoded.ok());
  return std::move(decoded).value();
}

TEST(MaterializeTest, CopyLeavesSharedArena) {
  TupleBatch batch = DecodedPostingBatch(64);
  const Tuple& slice = batch[10];
  Tuple compact = slice.Materialize();

  // Value equality holds...
  EXPECT_EQ(compact, slice);
  ASSERT_EQ(compact.arity(), 3u);
  EXPECT_EQ(compact.at(0).AsString(), "keyword");
  EXPECT_EQ(compact.at(1).AsUint64(), 10u);

  // ...but the compacted row owns fresh storage: neither the column arena
  // nor the batch string blob is referenced anymore.
  EXPECT_NE(compact.payload(), slice.payload());
  EXPECT_NE(compact.at(0).string_owner(), slice.at(0).string_owner());
  EXPECT_NE(compact.at(2).string_owner(), slice.at(2).string_owner());
}

TEST(MaterializeTest, ArenaReleasedWhenSlicesDropped) {
  Tuple kept;
  std::weak_ptr<const std::vector<Value>> arena;
  {
    TupleBatch batch = DecodedPostingBatch(64);
    arena = batch[0].payload();
    kept = batch[5].Materialize();
  }
  // All slices are gone; only the materialized copy survives — the shared
  // decode arena must have been freed.
  EXPECT_TRUE(arena.expired());
  EXPECT_EQ(kept.at(1).AsUint64(), 5u);
}

TEST(MaterializeTest, NonStringValuesPassThrough) {
  Value v(uint64_t{42});
  EXPECT_EQ(v.Materialize(), v);
  Value d(3.5);
  EXPECT_EQ(d.Materialize(), d);
  EXPECT_EQ(Tuple().Materialize().arity(), 0u);
}

}  // namespace
}  // namespace pierstack::pier
