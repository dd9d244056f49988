#include "dht/local_store.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/hashing.h"
#include "common/rng.h"

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

// --- Differential check against a multimap reference ----------------------

/// The store's contract as a plain multimap per namespace: values under a
/// key in insertion order, keys ascending. Every read filters expired
/// entries; only extraction and purge remove them.
class ReferenceStore {
 public:
  bool Put(const std::string& ns, Key key, const std::vector<uint8_t>& value,
           sim::SimTime expiry) {
    auto& space = spaces_[ns];
    auto [lo, hi] = space.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.value == value) {
        it->second.expiry = expiry;
        return false;
      }
    }
    bytes_ += value.size();
    space.emplace(key, StoredValue{key, value, expiry});
    return true;
  }

  std::vector<StoredValue> Get(const std::string& ns, Key key,
                               sim::SimTime now) const {
    std::vector<StoredValue> out;
    auto sit = spaces_.find(ns);
    if (sit == spaces_.end()) return out;
    auto [lo, hi] = sit->second.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (Alive(it->second, now)) out.push_back(it->second);
    }
    return out;
  }

  std::vector<StoredValue> Scan(const std::string& ns,
                                sim::SimTime now) const {
    std::vector<StoredValue> out;
    auto sit = spaces_.find(ns);
    if (sit == spaces_.end()) return out;
    for (const auto& [k, v] : sit->second) {
      if (Alive(v, now)) out.push_back(v);
    }
    return out;
  }

  std::vector<uint8_t> Image(const std::string& ns, Key key,
                             sim::SimTime now) const {
    std::vector<StoredValue> live = Get(ns, key, now);
    BytesWriter w;
    w.PutVarint(live.size());
    for (const StoredValue& v : live) {
      w.PutBytes(v.value.data(), v.value.size());
    }
    return w.Take();
  }

  std::vector<StoredValue> ExtractRange(const std::string& ns, Key from,
                                        Key to) {
    std::vector<StoredValue> out;
    auto sit = spaces_.find(ns);
    if (sit == spaces_.end()) return out;
    for (auto it = sit->second.begin(); it != sit->second.end();) {
      if (InOpenClosed(from, to, it->first)) {
        bytes_ -= it->second.value.size();
        out.push_back(it->second);
        it = sit->second.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

  std::vector<StoredValue> ExtractAll(const std::string& ns) {
    std::vector<StoredValue> out;
    auto sit = spaces_.find(ns);
    if (sit == spaces_.end()) return out;
    for (const auto& [k, v] : sit->second) {
      bytes_ -= v.value.size();
      out.push_back(v);
    }
    sit->second.clear();
    return out;
  }

  LocalStore::KeyDigest DigestKey(const std::string& ns, Key key,
                                  sim::SimTime now) const {
    LocalStore::KeyDigest d;
    for (const StoredValue& v : Get(ns, key, now)) Fold(&d, v);
    return d;
  }

  std::map<Key, LocalStore::KeyDigest> DigestRange(const std::string& ns,
                                                   Key from, Key to,
                                                   sim::SimTime now) const {
    std::map<Key, LocalStore::KeyDigest> out;
    auto sit = spaces_.find(ns);
    if (sit == spaces_.end()) return out;
    for (const auto& [k, v] : sit->second) {
      if (InOpenClosed(from, to, k) && Alive(v, now)) Fold(&out[k], v);
    }
    return out;
  }

  size_t PurgeExpired(sim::SimTime now) {
    size_t dropped = 0;
    for (auto& [ns, space] : spaces_) {
      for (auto it = space.begin(); it != space.end();) {
        if (Alive(it->second, now)) {
          ++it;
          continue;
        }
        bytes_ -= it->second.value.size();
        it = space.erase(it);
        ++dropped;
      }
    }
    return dropped;
  }

  size_t TotalEntries(sim::SimTime now) const {
    size_t n = 0;
    for (const auto& [ns, space] : spaces_) {
      for (const auto& [k, v] : space) n += Alive(v, now) ? 1 : 0;
    }
    return n;
  }

  std::vector<std::string> Namespaces() const {
    std::vector<std::string> out;
    for (const auto& [ns, space] : spaces_) out.push_back(ns);
    return out;
  }

  size_t payload_bytes() const { return bytes_; }

 private:
  static bool Alive(const StoredValue& v, sim::SimTime now) {
    return v.expiry == 0 || v.expiry > now;
  }
  static void Fold(LocalStore::KeyDigest* d, const StoredValue& v) {
    d->hash += Mix64(Fnv1a64(std::string_view(
        reinterpret_cast<const char*>(v.value.data()), v.value.size())));
    ++d->count;
  }

  std::map<std::string, std::multimap<Key, StoredValue>> spaces_;
  size_t bytes_ = 0;
};

std::vector<StoredValue> Deref(const std::vector<const StoredValue*>& ptrs) {
  std::vector<StoredValue> out;
  for (const StoredValue* v : ptrs) out.push_back(*v);
  return out;
}

/// Field-wise equality of two value sequences, in order.
::testing::AssertionResult SameValues(const std::vector<StoredValue>& got,
                                      const std::vector<StoredValue>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].key != want[i].key || got[i].value != want[i].value ||
        got[i].expiry != want[i].expiry) {
      return ::testing::AssertionFailure() << "entry " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(LocalStoreDifferentialTest, RandomOperationsMatchMultimapReference) {
  // Keys cluster at both ends of the ring so extraction and digest arcs
  // wrap the origin; few payloads so re-publishes dedupe often.
  const std::vector<Key> kKeys = {0,   1,   2,         3,         100,
                                  101, 500, ~Key{0},   ~Key{0} - 1,
                                  ~Key{0} - 100};
  const std::vector<std::string> kNamespaces = {"inv", "items", "meta"};
  size_t multi_value_gets = 0;  // reads whose order the check pins down
  size_t extracted = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    LocalStore store;
    ReferenceStore ref;
    sim::SimTime now = 0;
    auto key = [&] { return kKeys[rng.NextBelow(kKeys.size())]; };
    auto ns = [&] { return kNamespaces[rng.NextBelow(kNamespaces.size())]; };
    for (int op = 0; op < 2000; ++op) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                   std::to_string(op));
      std::string n = ns();
      Key k = key();
      switch (rng.NextBelow(12)) {
        case 0:
        case 1:
        case 2: {
          std::vector<uint8_t> value =
              Bytes("v" + std::to_string(rng.NextBelow(12)));
          sim::SimTime expiry =
              rng.NextBernoulli(0.7) ? 0 : now + 1 + rng.NextBelow(50);
          ASSERT_EQ(store.Put(n, k, value, expiry),
                    ref.Put(n, k, value, expiry));
          break;
        }
        case 3:
          ASSERT_TRUE(SameValues(Deref(store.Get(n, k, now)),
                                 ref.Get(n, k, now)));
          multi_value_gets += ref.Get(n, k, now).size() > 1 ? 1 : 0;
          ASSERT_EQ(store.Count(n, k, now), ref.Get(n, k, now).size());
          ASSERT_EQ(store.Has(n, k, now), !ref.Get(n, k, now).empty());
          break;
        case 4:
          ASSERT_TRUE(SameValues(Deref(store.Scan(n, now)), ref.Scan(n, now)));
          break;
        case 5:
          ASSERT_EQ(*store.GetBatch(n, k, now), ref.Image(n, k, now));
          break;
        case 6: {
          if (rng.NextBelow(4) != 0) break;  // let posting lists grow
          // (k - 1, k] takes one key; (k, k] is the whole ring.
          Key from = rng.NextBernoulli(0.5) ? k - 1 : key();
          std::vector<StoredValue> want = ref.ExtractRange(n, from, k);
          ASSERT_TRUE(SameValues(store.ExtractRange(n, from, k), want));
          extracted += want.size();
          break;
        }
        case 7:
          if (rng.NextBelow(4) == 0) {
            ASSERT_TRUE(SameValues(store.ExtractAll(n), ref.ExtractAll(n)));
          }
          break;
        case 8:
          ASSERT_EQ(store.DigestKey(n, k, now), ref.DigestKey(n, k, now));
          break;
        case 9: {
          Key from = key();
          auto got = store.DigestRange(n, from, k, now);
          auto want = ref.DigestRange(n, from, k, now);
          ASSERT_EQ(got.size(), want.size());
          auto w = want.begin();
          for (const auto& [gk, gd] : got) {
            ASSERT_EQ(gk, w->first);
            ASSERT_EQ(gd, w->second);
            ++w;
          }
          break;
        }
        case 10:
          if (rng.NextBelow(8) == 0) {
            ASSERT_EQ(store.PurgeExpired(now), ref.PurgeExpired(now));
          }
          break;
        case 11:
          now += rng.NextBelow(10);
          break;
      }
      ASSERT_EQ(store.TotalBytes() - store.ImageCacheBytes(),
                ref.payload_bytes());
    }
    EXPECT_EQ(store.TotalEntries(now), ref.TotalEntries(now));
    EXPECT_EQ(store.Namespaces(), ref.Namespaces());
    for (const std::string& n : kNamespaces) {
      EXPECT_TRUE(SameValues(Deref(store.Scan(n, 0)), ref.Scan(n, 0)));
    }
  }
  EXPECT_GT(multi_value_gets, 250u);
  EXPECT_GT(extracted, 1000u);
}

}  // namespace
}  // namespace pierstack::dht
