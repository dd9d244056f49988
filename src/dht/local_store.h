// Per-node DHT storage: namespaced soft state, each key's values in one
// vector.
//
// PIER stores every tuple in the DHT (Section 2 of the paper); this is the
// node-local slice of that storage. Values are opaque byte strings plus the
// ring key they were published under; entries may carry an expiry time
// (soft state). Each namespace maps a key to the vector of its values in
// insertion order, in a std::map so range walks visit keys in ascending
// order; a posting list of n entries is one contiguous vector, and a key
// whose last value leaves is erased, never kept as an empty vector. Every
// read hides expired entries, but nothing reclaims them: PurgeExpired is
// the only path that frees them and no layer schedules it, so expired
// entries stay in memory (and in TotalBytes) until a handover extracts
// them. No workload here publishes with an expiry.
//
// Batched reads hand out shared immutable TupleBatch images. Hot posting
// lists are probed far more often than they change, so the assembled image
// of each (ns, key) is cached and re-served by shared pointer until a Put,
// an extraction, or the expiry of a contained entry invalidates it —
// repeated probes cost a hash lookup instead of a re-concatenation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dht/id.h"
#include "sim/executor.h"

namespace pierstack::dht {

/// One stored value.
struct StoredValue {
  Key key = 0;                    ///< Ring key it was published under.
  std::vector<uint8_t> value;     ///< Opaque payload (serialized tuple).
  sim::SimTime expiry = 0;        ///< 0 = never expires.
};

/// A shared immutable TupleBatch image (count prefix + frames). Handing
/// these out by pointer lets the reply path and the cache alias one
/// allocation instead of copying posting-list bytes per probe.
using BatchImage = std::shared_ptr<const std::vector<uint8_t>>;

/// Image-cache counters (tests and diagnostics).
struct ImageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  uint64_t size_evictions = 0;  ///< Images evicted by the byte bound.
};

/// Node-local namespaced store.
///
/// Not thread-safe; the simulator is single-threaded by design.
class LocalStore {
 public:
  /// Inserts a value under (ns, key). Duplicate payloads under the same key
  /// are de-duplicated (a re-publish refreshes the expiry instead).
  /// Returns true if a new entry was created.
  bool Put(const std::string& ns, Key key, std::vector<uint8_t> value,
           sim::SimTime expiry = 0);

  /// All live values stored under (ns, key), in insertion order. The
  /// pointers stay valid only until the next mutation of the store (Put,
  /// an extraction or a purge): a Put may grow and so move the key's value
  /// vector. Callers copy what they need before storing anything.
  std::vector<const StoredValue*> Get(const std::string& ns, Key key,
                                      sim::SimTime now) const;

  /// Number of live values stored under (ns, key) — what Get(...).size()
  /// would return, without building the pointer vector.
  size_t Count(const std::string& ns, Key key, sim::SimTime now) const;

  /// True iff at least one live value is stored under (ns, key) — the
  /// allocation-free presence probe.
  bool Has(const std::string& ns, Key key, sim::SimTime now) const;

  /// All live values in a namespace (local scan), in ascending key order
  /// and insertion order within a key. Pointer lifetime as for Get.
  std::vector<const StoredValue*> Scan(const std::string& ns,
                                       sim::SimTime now) const;

  /// Batched Get: one contiguous pier::TupleBatch image (varint live-entry
  /// count, then the stored frames back-to-back). Because each stored
  /// value is a standalone tuple frame, the image is assembled by
  /// concatenation alone and decoded by the caller in a single pass. The
  /// assembled image is cached per (ns, key): repeated probes of a hot
  /// posting list return the same shared image until a write or the expiry
  /// of a contained entry invalidates it.
  BatchImage GetBatch(const std::string& ns, Key key, sim::SimTime now);

  /// Removes entries whose ring key falls in (from, to] — used when handing
  /// a key range to a joining node; (k - 1, k] removes one key's values.
  /// Returns the removed entries.
  std::vector<StoredValue> ExtractRange(const std::string& ns, Key from,
                                        Key to);

  /// Order-independent digest of the live values under one (ns, key):
  /// a commutative sum of per-value hashes plus the live count. Two
  /// replicas holding the same value multiset produce the same digest
  /// regardless of insertion order; the anti-entropy re-sync protocol
  /// compares these per key to find divergent entries cheaply.
  struct KeyDigest {
    uint64_t hash = 0;    ///< Sum of avalanched per-value hashes (mod 2^64).
    uint32_t count = 0;   ///< Live values under the key.
    bool operator==(const KeyDigest& o) const {
      return hash == o.hash && count == o.count;
    }
    bool operator!=(const KeyDigest& o) const { return !(*this == o); }
  };

  KeyDigest DigestKey(const std::string& ns, Key key, sim::SimTime now) const;

  /// Digests every key with at least one live value whose ring key falls in
  /// (from, to] (wrap-safe). The returned map is what an arc owner ships to
  /// its replicas in a re-sync round.
  std::map<Key, KeyDigest> DigestRange(const std::string& ns, Key from,
                                       Key to, sim::SimTime now) const;

  /// Removes and returns every entry in a namespace (graceful departure).
  std::vector<StoredValue> ExtractAll(const std::string& ns);

  /// Namespaces present (including ones holding only expired entries until
  /// the next purge).
  std::vector<std::string> Namespaces() const;

  /// Drops expired entries; returns how many were dropped. The only path
  /// that reclaims expired soft state (see the file comment).
  size_t PurgeExpired(sim::SimTime now);

  /// Number of live entries across all namespaces.
  size_t TotalEntries(sim::SimTime now) const;

  /// Total bytes currently held: stored payloads (including
  /// expired-but-unpurged) PLUS the cached batch images — on a node hosting
  /// huge posting lists the images roughly double the footprint, so memory
  /// accounting must see them.
  size_t TotalBytes() const { return total_bytes_ + image_bytes_; }

  /// Bytes held by cached batch images alone.
  size_t ImageCacheBytes() const { return image_bytes_; }

  /// Caps the cached-image bytes per namespace; images are evicted (oldest
  /// insertion first) until the new image fits. Images larger than the cap
  /// are served but not cached.
  void set_max_image_cache_bytes_per_ns(size_t bytes) {
    max_image_bytes_per_ns_ = bytes;
  }

  const ImageCacheStats& image_cache_stats() const { return cache_stats_; }

 private:
  /// One cached batch image. `valid_until` is the earliest expiry among the
  /// entries baked into the image (0 = none expire): past it the image
  /// would include dead entries, so it self-invalidates. `seq` orders
  /// insertions for size eviction (oldest first).
  struct CachedImage {
    BatchImage image;
    sim::SimTime valid_until = 0;
    uint64_t seq = 0;
  };

  /// Per-namespace image cache plus its byte accounting.
  struct NamespaceCache {
    std::unordered_map<Key, CachedImage> images;
    size_t bytes = 0;
  };

  /// Bound on cached images per namespace; crossing it drops the whole
  /// namespace cache (cheap, and refill is one concatenation per hot key).
  static constexpr size_t kMaxCachedImagesPerNs = 1024;
  /// Default byte bound per namespace cache (see set_max_image_cache_...).
  static constexpr size_t kDefaultMaxImageBytesPerNs = 4 << 20;

  void InvalidateImage(const std::string& ns, Key key);
  void InvalidateNamespace(const std::string& ns);
  void DropNamespaceCache(NamespaceCache* cache);
  /// Evicts oldest-inserted images from `cache` until at least `needed`
  /// bytes fit under the per-namespace cap.
  void EvictImagesForSpace(NamespaceCache* cache, size_t needed);

  /// One namespace: key -> its values in insertion order, never empty.
  /// std::map on key so range walks visit keys in ascending order.
  using Space = std::map<Key, std::vector<StoredValue>>;

  /// The values under (ns, key), expired ones included, or null when none
  /// are stored.
  const std::vector<StoredValue>* Values(const std::string& ns,
                                         Key key) const;

  std::map<std::string, Space> spaces_;
  std::map<std::string, NamespaceCache> image_cache_;
  ImageCacheStats cache_stats_;
  size_t total_bytes_ = 0;
  size_t image_bytes_ = 0;
  size_t max_image_bytes_per_ns_ = kDefaultMaxImageBytesPerNs;
  uint64_t image_seq_ = 0;

  static bool Alive(const StoredValue& v, sim::SimTime now) {
    return v.expiry == 0 || v.expiry > now;
  }
};

}  // namespace pierstack::dht
