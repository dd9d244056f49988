#include "dht/local_store.h"

#include <gtest/gtest.h>

namespace pierstack::dht {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(LocalStoreTest, PutGetRoundTrip) {
  LocalStore store;
  EXPECT_TRUE(store.Put("items", 42, Bytes("hello")));
  auto got = store.Get("items", 42, 0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->value, Bytes("hello"));
  EXPECT_EQ(got[0]->key, 42u);
}

TEST(LocalStoreTest, MultipleValuesPerKey) {
  LocalStore store;
  store.Put("inv", 7, Bytes("a"));
  store.Put("inv", 7, Bytes("b"));
  EXPECT_EQ(store.Get("inv", 7, 0).size(), 2u);
}

TEST(LocalStoreTest, DuplicatePayloadDeduped) {
  LocalStore store;
  EXPECT_TRUE(store.Put("inv", 7, Bytes("a")));
  EXPECT_FALSE(store.Put("inv", 7, Bytes("a")));
  EXPECT_EQ(store.Get("inv", 7, 0).size(), 1u);
  EXPECT_EQ(store.TotalBytes(), 1u);
}

TEST(LocalStoreTest, RepublishRefreshesExpiry) {
  LocalStore store;
  store.Put("inv", 7, Bytes("a"), /*expiry=*/100);
  store.Put("inv", 7, Bytes("a"), /*expiry=*/500);
  EXPECT_EQ(store.Get("inv", 7, 200).size(), 1u);  // still alive at 200
}

TEST(LocalStoreTest, NamespacesAreIsolated) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"));
  store.Put("b", 1, Bytes("y"));
  EXPECT_EQ(store.Get("a", 1, 0).size(), 1u);
  EXPECT_EQ(store.Get("a", 1, 0)[0]->value, Bytes("x"));
  EXPECT_EQ(store.Get("b", 1, 0)[0]->value, Bytes("y"));
  EXPECT_TRUE(store.Get("c", 1, 0).empty());
}

TEST(LocalStoreTest, ExpiryHidesValues) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"), /*expiry=*/100);
  EXPECT_EQ(store.Get("a", 1, 50).size(), 1u);
  EXPECT_EQ(store.Get("a", 1, 99).size(), 1u);
  EXPECT_TRUE(store.Get("a", 1, 100).empty());  // expiry is exclusive
  EXPECT_TRUE(store.Get("a", 1, 500).empty());
}

TEST(LocalStoreTest, ZeroExpiryNeverExpires) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"), 0);
  EXPECT_EQ(store.Get("a", 1, UINT64_MAX).size(), 1u);
}

TEST(LocalStoreTest, ScanReturnsAllLiveInNamespace) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"));
  store.Put("a", 2, Bytes("y"));
  store.Put("a", 3, Bytes("z"), /*expiry=*/10);
  EXPECT_EQ(store.Scan("a", 5).size(), 3u);
  EXPECT_EQ(store.Scan("a", 20).size(), 2u);
}

TEST(LocalStoreTest, ExtractingOneKeyRemovesAllUnderIt) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"));
  store.Put("a", 1, Bytes("y"));
  store.Put("a", 2, Bytes("z"));
  EXPECT_EQ(store.ExtractRange("a", 0, 1).size(), 2u);
  EXPECT_TRUE(store.Get("a", 1, 0).empty());
  EXPECT_EQ(store.Get("a", 2, 0).size(), 1u);
  EXPECT_EQ(store.TotalBytes(), 1u);
}

TEST(LocalStoreTest, PurgeExpiredDropsAndCounts) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"), 10);
  store.Put("a", 2, Bytes("y"), 20);
  store.Put("b", 3, Bytes("z"));
  EXPECT_EQ(store.PurgeExpired(15), 1u);
  EXPECT_EQ(store.TotalEntries(0), 2u);
}

TEST(LocalStoreTest, ExtractRangeMovesOwnership) {
  LocalStore store;
  store.Put("a", 10, Bytes("ten"));
  store.Put("a", 20, Bytes("twenty"));
  store.Put("a", 30, Bytes("thirty"));
  // Range (15, 30]: keys 20 and 30.
  auto moved = store.ExtractRange("a", 15, 30);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(store.TotalEntries(0), 1u);
  EXPECT_EQ(store.Get("a", 10, 0).size(), 1u);
  EXPECT_TRUE(store.Get("a", 20, 0).empty());
}

TEST(LocalStoreTest, ExtractRangeWrapsRing) {
  LocalStore store;
  store.Put("a", 5, Bytes("five"));
  store.Put("a", UINT64_MAX - 5, Bytes("high"));
  store.Put("a", 1000, Bytes("mid"));
  // (MAX-10, 10] wraps: should take MAX-5 and 5 but not 1000.
  auto moved = store.ExtractRange("a", UINT64_MAX - 10, 10);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(store.Get("a", 1000, 0).size(), 1u);
}

TEST(LocalStoreTest, ExtractAllEmptiesNamespace) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"));
  store.Put("a", 2, Bytes("y"));
  store.Put("b", 3, Bytes("z"));
  auto all = store.ExtractAll("a");
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(store.Get("a", 1, 0).empty());
  EXPECT_EQ(store.Get("b", 3, 0).size(), 1u);
  EXPECT_EQ(store.TotalBytes(), 1u);
}

TEST(LocalStoreTest, TotalBytesTracksPayloadSizes) {
  LocalStore store;
  store.Put("a", 1, Bytes("xxxx"));
  store.Put("a", 2, Bytes("yy"));
  EXPECT_EQ(store.TotalBytes(), 6u);
  store.ExtractRange("a", 0, 1);
  EXPECT_EQ(store.TotalBytes(), 2u);
}

TEST(LocalStoreTest, NamespacesList) {
  LocalStore store;
  store.Put("items", 1, Bytes("x"));
  store.Put("inverted", 2, Bytes("y"));
  auto ns = store.Namespaces();
  EXPECT_EQ(ns.size(), 2u);
}

// --- GetBatch image cache ---------------------------------------------------

TEST(LocalStoreImageCacheTest, RepeatedProbesShareOneImage) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aa"));
  store.Put("inv", 7, Bytes("bb"));
  BatchImage first = store.GetBatch("inv", 7, 0);
  BatchImage second = store.GetBatch("inv", 7, 0);
  // Cache hit: literally the same allocation, no re-assembly.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(store.image_cache_stats().misses, 1u);
  EXPECT_EQ(store.image_cache_stats().hits, 1u);
}

TEST(LocalStoreImageCacheTest, PutInvalidates) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aa"));
  BatchImage before = store.GetBatch("inv", 7, 0);
  store.Put("inv", 7, Bytes("bb"));
  BatchImage after = store.GetBatch("inv", 7, 0);
  EXPECT_NE(before.get(), after.get());
  EXPECT_GT(after->size(), before->size());  // new value baked in
  EXPECT_GE(store.image_cache_stats().invalidations, 1u);
  // Other keys keep their cached images.
  store.Put("inv", 8, Bytes("cc"));
  BatchImage other = store.GetBatch("inv", 8, 0);
  BatchImage again = store.GetBatch("inv", 7, 0);
  EXPECT_EQ(after.get(), again.get());
  (void)other;
}

TEST(LocalStoreImageCacheTest, RepublishRefreshInvalidates) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aa"), /*expiry=*/100);
  BatchImage before = store.GetBatch("inv", 7, 50);
  // Refreshing the same payload's expiry must rebuild (valid_until moves).
  store.Put("inv", 7, Bytes("aa"), /*expiry=*/500);
  BatchImage after = store.GetBatch("inv", 7, 200);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(*before, *after);  // same live set, same bytes
}

TEST(LocalStoreImageCacheTest, ExpiryOfContainedEntrySelfInvalidates) {
  LocalStore store;
  store.Put("inv", 7, Bytes("forever"));
  store.Put("inv", 7, Bytes("soft"), /*expiry=*/100);
  BatchImage live = store.GetBatch("inv", 7, 10);
  // Before the soft entry dies the image is served from cache.
  EXPECT_EQ(store.GetBatch("inv", 7, 99).get(), live.get());
  // At its expiry the image is stale and must be rebuilt without it.
  BatchImage rebuilt = store.GetBatch("inv", 7, 100);
  EXPECT_NE(rebuilt.get(), live.get());
  EXPECT_LT(rebuilt->size(), live->size());
  EXPECT_EQ((*rebuilt)[0], 1u);  // count prefix: one live entry left
}

TEST(LocalStoreImageCacheTest, ExtractionsInvalidate) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aa"));
  BatchImage before = store.GetBatch("inv", 7, 0);
  store.ExtractRange("inv", 6, 7);
  BatchImage gone = store.GetBatch("inv", 7, 0);
  EXPECT_EQ((*gone)[0], 0u);  // empty batch

  store.Put("inv", 9, Bytes("bb"));
  BatchImage nine = store.GetBatch("inv", 9, 0);
  store.ExtractAll("inv");
  EXPECT_EQ((*store.GetBatch("inv", 9, 0))[0], 0u);
  (void)before;
  (void)nine;
}

TEST(LocalStoreImageCacheTest, MissServesSharedEmptyImage) {
  LocalStore store;
  BatchImage a = store.GetBatch("nothing", 1, 0);
  BatchImage b = store.GetBatch("nothing", 2, 0);
  ASSERT_EQ(a->size(), 1u);
  EXPECT_EQ((*a)[0], 0u);
  EXPECT_EQ(a.get(), b.get());  // canonical empty image, no allocations
}

// --- Image-cache memory accounting ------------------------------------------

TEST(LocalStoreImageCacheTest, CachedImageBytesChargedIntoTotalBytes) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aaaa"));
  store.Put("inv", 7, Bytes("bb"));
  size_t payload_bytes = store.TotalBytes();
  EXPECT_EQ(payload_bytes, 6u);
  BatchImage image = store.GetBatch("inv", 7, 0);
  // The cached image (count prefix + both frames) now counts as held
  // memory alongside the payloads it duplicates.
  EXPECT_EQ(store.ImageCacheBytes(), image->size());
  EXPECT_EQ(store.TotalBytes(), payload_bytes + image->size());
  // Invalidation releases the charge.
  store.Put("inv", 7, Bytes("c"));
  EXPECT_EQ(store.ImageCacheBytes(), 0u);
  EXPECT_EQ(store.TotalBytes(), 7u);
}

TEST(LocalStoreImageCacheTest, EvictsOldestImagesWhenOverByteBudget) {
  LocalStore store;
  store.set_max_image_cache_bytes_per_ns(64);
  // Three posting lists of ~30 bytes each: caching the third must push the
  // first (oldest) image out to stay under the 64-byte budget.
  for (Key k = 1; k <= 3; ++k) {
    store.Put("inv", k, std::vector<uint8_t>(29, uint8_t(k)));
    store.GetBatch("inv", k, 0);
  }
  EXPECT_EQ(store.image_cache_stats().size_evictions, 1u);
  EXPECT_LE(store.ImageCacheBytes(), 64u);
  // Keys 2 and 3 still hit; key 1 was the eviction victim.
  uint64_t hits_before = store.image_cache_stats().hits;
  store.GetBatch("inv", 2, 0);
  store.GetBatch("inv", 3, 0);
  EXPECT_EQ(store.image_cache_stats().hits, hits_before + 2);
  uint64_t misses_before = store.image_cache_stats().misses;
  store.GetBatch("inv", 1, 0);
  EXPECT_EQ(store.image_cache_stats().misses, misses_before + 1);
}

TEST(LocalStoreImageCacheTest, OversizedImageServedButNotCached) {
  LocalStore store;
  store.set_max_image_cache_bytes_per_ns(16);
  store.Put("inv", 7, std::vector<uint8_t>(64, 0x7));
  BatchImage image = store.GetBatch("inv", 7, 0);
  EXPECT_EQ(image->size(), 65u);  // count prefix + frame
  // A list bigger than the whole budget must not thrash the cache.
  EXPECT_EQ(store.ImageCacheBytes(), 0u);
  EXPECT_EQ(store.TotalBytes(), 64u);
  // Serving it again re-assembles (miss), still without caching.
  store.GetBatch("inv", 7, 0);
  EXPECT_EQ(store.image_cache_stats().hits, 0u);
  EXPECT_EQ(store.image_cache_stats().misses, 2u);
}

TEST(LocalStoreImageCacheTest, NamespaceDropReleasesImageBytes) {
  LocalStore store;
  store.Put("inv", 1, Bytes("abc"));
  store.Put("inv", 2, Bytes("defg"));
  store.GetBatch("inv", 1, 0);
  store.GetBatch("inv", 2, 0);
  EXPECT_GT(store.ImageCacheBytes(), 0u);
  store.ExtractAll("inv");  // namespace-wide invalidation
  EXPECT_EQ(store.ImageCacheBytes(), 0u);
  EXPECT_EQ(store.TotalBytes(), 0u);
}

}  // namespace
}  // namespace pierstack::dht
