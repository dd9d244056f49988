// DHT identifier space: a 64-bit circular key space.
//
// Both overlays (Chord-style and Bamboo-style) share this space. Keys are
// produced by hashing strings (keywords, fileIDs) with the deterministic
// FNV/SplitMix hashes in common/hashing.h.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/hashing.h"
#include "sim/network.h"

namespace pierstack::dht {

/// A position on the identifier ring.
using Key = uint64_t;

/// A node's identity: ring position plus its simulated network address.
struct NodeInfo {
  Key id = 0;
  sim::HostId host = sim::kInvalidHost;

  bool valid() const { return host != sim::kInvalidHost; }
  friend bool operator==(const NodeInfo& a, const NodeInfo& b) {
    return a.id == b.id && a.host == b.host;
  }
};

/// Clockwise distance from `from` to `to` (wraps naturally in uint64).
inline Key ClockwiseDistance(Key from, Key to) { return to - from; }

/// Minimal ring distance (either direction); Pastry-style numerical
/// closeness.
inline Key RingDistance(Key a, Key b) {
  Key d = a - b;
  Key e = b - a;
  return d < e ? d : e;
}

/// True iff x ∈ (a, b] on the ring. By convention (a, a] is the full ring,
/// which makes a single-node ring own every key.
inline bool InOpenClosed(Key a, Key b, Key x) {
  if (a == b) return true;
  return ClockwiseDistance(a, x) != 0 &&
         ClockwiseDistance(a, x) <= ClockwiseDistance(a, b);
}

/// True iff x ∈ (a, b) on the ring; (a, a) is the full ring minus {a}.
inline bool InOpenOpen(Key a, Key b, Key x) {
  if (a == b) return x != a;
  return ClockwiseDistance(a, x) != 0 &&
         ClockwiseDistance(a, x) < ClockwiseDistance(a, b);
}

/// Hashes an arbitrary string to a ring key.
inline Key KeyForString(std::string_view s) { return Fnv1a64(s); }

/// Hashes a (namespace, key) pair, e.g. ("inverted", "madonna").
inline Key KeyForNamespaced(std::string_view ns, std::string_view s) {
  return HashCombine(Fnv1a64(ns), Fnv1a64(s));
}

}  // namespace pierstack::dht
