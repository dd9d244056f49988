#include "dht/local_store.h"

#include <algorithm>
#include <string_view>

#include "common/bytes.h"
#include "common/hashing.h"

namespace pierstack::dht {

namespace {

bool AliveFn(const StoredValue& v, sim::SimTime now) {
  return v.expiry == 0 || v.expiry > now;
}

/// Emits a TupleBatch image (count prefix + concatenated frames) from a
/// key's live values.
std::vector<uint8_t> AssembleImage(const std::vector<StoredValue>& values,
                                   sim::SimTime now) {
  size_t count = 0, bytes = 0;
  for (const StoredValue& v : values) {
    if (!AliveFn(v, now)) continue;
    ++count;
    bytes += v.value.size();
  }
  BytesWriter w;
  w.Reserve(VarintSize(count) + bytes);
  w.PutVarint(count);
  for (const StoredValue& v : values) {
    if (!AliveFn(v, now)) continue;
    w.PutBytes(v.value.data(), v.value.size());
  }
  return w.Take();
}

/// The canonical empty batch image ({count = 0}), shared by every miss.
const BatchImage& EmptyImage() {
  static const BatchImage empty =
      std::make_shared<const std::vector<uint8_t>>(1, uint8_t{0});
  return empty;
}

}  // namespace

void LocalStore::InvalidateImage(const std::string& ns, Key key) {
  auto cit = image_cache_.find(ns);
  if (cit == image_cache_.end()) return;
  auto it = cit->second.images.find(key);
  if (it == cit->second.images.end()) return;
  size_t sz = it->second.image->size();
  cit->second.bytes -= sz;
  image_bytes_ -= sz;
  cit->second.images.erase(it);
  ++cache_stats_.invalidations;
}

void LocalStore::InvalidateNamespace(const std::string& ns) {
  auto cit = image_cache_.find(ns);
  if (cit == image_cache_.end()) return;
  cache_stats_.invalidations += cit->second.images.size();
  DropNamespaceCache(&cit->second);
  image_cache_.erase(cit);
}

void LocalStore::DropNamespaceCache(NamespaceCache* cache) {
  image_bytes_ -= cache->bytes;
  cache->bytes = 0;
  cache->images.clear();
}

void LocalStore::EvictImagesForSpace(NamespaceCache* cache, size_t needed) {
  while (!cache->images.empty() &&
         cache->bytes + needed > max_image_bytes_per_ns_) {
    auto victim = cache->images.begin();
    for (auto it = cache->images.begin(); it != cache->images.end(); ++it) {
      if (it->second.seq < victim->second.seq) victim = it;
    }
    size_t sz = victim->second.image->size();
    cache->bytes -= sz;
    image_bytes_ -= sz;
    cache->images.erase(victim);
    ++cache_stats_.size_evictions;
  }
}

bool LocalStore::Put(const std::string& ns, Key key,
                     std::vector<uint8_t> value, sim::SimTime expiry) {
  InvalidateImage(ns, key);
  std::vector<StoredValue>& values = spaces_[ns][key];
  for (StoredValue& v : values) {
    if (v.value == value) {
      // Re-publish: refresh soft state.
      v.expiry = expiry;
      return false;
    }
  }
  total_bytes_ += value.size();
  values.push_back(StoredValue{key, std::move(value), expiry});
  return true;
}

const std::vector<StoredValue>* LocalStore::Values(const std::string& ns,
                                                   Key key) const {
  auto sit = spaces_.find(ns);
  if (sit == spaces_.end()) return nullptr;
  auto kit = sit->second.find(key);
  return kit == sit->second.end() ? nullptr : &kit->second;
}

std::vector<const StoredValue*> LocalStore::Get(const std::string& ns, Key key,
                                                sim::SimTime now) const {
  std::vector<const StoredValue*> out;
  const std::vector<StoredValue>* values = Values(ns, key);
  if (values == nullptr) return out;
  out.reserve(values->size());
  for (const StoredValue& v : *values) {
    if (Alive(v, now)) out.push_back(&v);
  }
  return out;
}

size_t LocalStore::Count(const std::string& ns, Key key,
                         sim::SimTime now) const {
  const std::vector<StoredValue>* values = Values(ns, key);
  if (values == nullptr) return 0;
  return static_cast<size_t>(
      std::count_if(values->begin(), values->end(),
                    [now](const StoredValue& v) { return Alive(v, now); }));
}

bool LocalStore::Has(const std::string& ns, Key key, sim::SimTime now) const {
  const std::vector<StoredValue>* values = Values(ns, key);
  return values != nullptr &&
         std::any_of(values->begin(), values->end(),
                     [now](const StoredValue& v) { return Alive(v, now); });
}

std::vector<const StoredValue*> LocalStore::Scan(const std::string& ns,
                                                 sim::SimTime now) const {
  std::vector<const StoredValue*> out;
  auto sit = spaces_.find(ns);
  if (sit == spaces_.end()) return out;
  for (const auto& [k, values] : sit->second) {
    for (const StoredValue& v : values) {
      if (Alive(v, now)) out.push_back(&v);
    }
  }
  return out;
}

BatchImage LocalStore::GetBatch(const std::string& ns, Key key,
                                sim::SimTime now) {
  auto cit = image_cache_.find(ns);
  if (cit != image_cache_.end()) {
    auto hit = cit->second.images.find(key);
    if (hit != cit->second.images.end()) {
      if (hit->second.valid_until == 0 || now < hit->second.valid_until) {
        ++cache_stats_.hits;
        return hit->second.image;
      }
      // An entry baked into the image expired: rebuild below.
      size_t sz = hit->second.image->size();
      cit->second.bytes -= sz;
      image_bytes_ -= sz;
      cit->second.images.erase(hit);
      ++cache_stats_.invalidations;
    }
  }
  ++cache_stats_.misses;
  // Probes of never-stored namespaces must not grow the cache map.
  auto sit = spaces_.find(ns);
  if (sit == spaces_.end()) return EmptyImage();
  // A stored namespace caches the empty image of an unstored key too.
  const std::vector<StoredValue> none;
  auto kit = sit->second.find(key);
  const std::vector<StoredValue>& values =
      kit == sit->second.end() ? none : kit->second;
  sim::SimTime valid_until = 0;
  for (const StoredValue& v : values) {
    if (!Alive(v, now)) continue;
    if (v.expiry != 0 && (valid_until == 0 || v.expiry < valid_until)) {
      valid_until = v.expiry;
    }
  }
  auto image = std::make_shared<const std::vector<uint8_t>>(
      AssembleImage(values, now));
  // An image over the whole byte budget is served but never cached — one
  // giant posting list must not monopolize (or thrash) the cache.
  if (image->size() > max_image_bytes_per_ns_) return image;
  auto& cache = image_cache_[ns];
  if (cache.images.size() >= kMaxCachedImagesPerNs) {
    cache_stats_.invalidations += cache.images.size();
    DropNamespaceCache(&cache);
  }
  EvictImagesForSpace(&cache, image->size());
  cache.bytes += image->size();
  image_bytes_ += image->size();
  cache.images.emplace(key, CachedImage{image, valid_until, ++image_seq_});
  return image;
}

std::vector<StoredValue> LocalStore::ExtractRange(const std::string& ns,
                                                  Key from, Key to) {
  InvalidateNamespace(ns);
  std::vector<StoredValue> out;
  auto sit = spaces_.find(ns);
  if (sit == spaces_.end()) return out;
  Space& space = sit->second;
  for (auto it = space.begin(); it != space.end();) {
    if (InOpenClosed(from, to, it->first)) {
      for (StoredValue& v : it->second) {
        total_bytes_ -= v.value.size();
        out.push_back(std::move(v));
      }
      it = space.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

namespace {

/// Avalanched hash of one stored payload. The avalanche step matters: the
/// digest sums these, and summing raw FNV values of similar payloads would
/// collide far too easily.
uint64_t ValueHash(const StoredValue& v) {
  return Mix64(Fnv1a64(std::string_view(
      reinterpret_cast<const char*>(v.value.data()), v.value.size())));
}

}  // namespace

LocalStore::KeyDigest LocalStore::DigestKey(const std::string& ns, Key key,
                                            sim::SimTime now) const {
  KeyDigest d;
  const std::vector<StoredValue>* values = Values(ns, key);
  if (values == nullptr) return d;
  for (const StoredValue& v : *values) {
    if (!Alive(v, now)) continue;
    d.hash += ValueHash(v);
    ++d.count;
  }
  return d;
}

std::map<Key, LocalStore::KeyDigest> LocalStore::DigestRange(
    const std::string& ns, Key from, Key to, sim::SimTime now) const {
  std::map<Key, KeyDigest> out;
  auto sit = spaces_.find(ns);
  if (sit == spaces_.end()) return out;
  // Full walk, like ExtractRange: the (from, to] arc may wrap the ring, so
  // the membership test does the work rather than iterator bounds.
  for (const auto& [k, values] : sit->second) {
    if (!InOpenClosed(from, to, k)) continue;
    KeyDigest d;
    for (const StoredValue& v : values) {
      if (!Alive(v, now)) continue;
      d.hash += ValueHash(v);
      ++d.count;
    }
    if (d.count > 0) out.emplace_hint(out.end(), k, d);
  }
  return out;
}

std::vector<StoredValue> LocalStore::ExtractAll(const std::string& ns) {
  InvalidateNamespace(ns);
  std::vector<StoredValue> out;
  auto sit = spaces_.find(ns);
  if (sit == spaces_.end()) return out;
  for (auto& [k, values] : sit->second) {
    for (StoredValue& v : values) {
      total_bytes_ -= v.value.size();
      out.push_back(std::move(v));
    }
  }
  sit->second.clear();
  return out;
}

std::vector<std::string> LocalStore::Namespaces() const {
  std::vector<std::string> out;
  out.reserve(spaces_.size());
  for (const auto& [ns, _] : spaces_) out.push_back(ns);
  return out;
}

size_t LocalStore::PurgeExpired(sim::SimTime now) {
  // Cached images never include entries dead at their build time, and
  // `valid_until` retires them before any baked-in entry dies, so the purge
  // itself does not change what GetBatch serves — no invalidation needed.
  size_t dropped = 0;
  for (auto& [ns, space] : spaces_) {
    for (auto it = space.begin(); it != space.end();) {
      std::vector<StoredValue>& values = it->second;
      for (const StoredValue& v : values) {
        if (Alive(v, now)) continue;
        total_bytes_ -= v.value.size();
        ++dropped;
      }
      values.erase(std::remove_if(values.begin(), values.end(),
                                  [now](const StoredValue& v) {
                                    return !Alive(v, now);
                                  }),
                   values.end());
      it = values.empty() ? space.erase(it) : ++it;
    }
  }
  return dropped;
}

size_t LocalStore::TotalEntries(sim::SimTime now) const {
  size_t n = 0;
  for (const auto& [ns, space] : spaces_) {
    for (const auto& [k, values] : space) {
      for (const StoredValue& v : values) {
        if (Alive(v, now)) ++n;
      }
    }
  }
  return n;
}

}  // namespace pierstack::dht
