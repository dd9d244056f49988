// Owner location cache: learned (key-arc → owner address) routing state.
//
// Every routed reply/ack carries an OwnerHint teaching the sender which
// node answered authoritatively and for which arc of the ring; deliveries
// with no reply teach through a tiny standalone hint message. Subsequent
// sends into a cached arc try a direct one-hop fast path first and fall
// back to ring routing on a miss or a stale entry, so steady-state query
// workloads (standing rehash queues, FetchMany scatters, join-stage chunk
// streams) converge to ~1-hop messaging — the learned-routing-state idea
// super-peer systems exploit, applied per node.
//
// Correctness never depends on the cache: a fast-path message is a normal
// routed message without the final-hop marker, so a stale receiver simply
// forwards it along the ring. Entries are invalidated by failed sends and
// peer removal (churn), superseded by newer hints, and cleared wholesale
// on membership epoch changes (static table rebuilds).
//
// The cache is one small vector of arcs sorted by arc end: a lookup is a
// binary search plus at most three adjacent probes, a refresh rewrites its
// entry in place, and a new arc is inserted at its bound.
#pragma once

#include <cstdint>
#include <vector>

#include "dht/id.h"

namespace pierstack::dht {

/// What an authoritative answerer teaches the route origin: `owner` covers
/// every key in (arc_start, arc_end] — its owned arc when it knows its
/// predecessor (Chord), else the degenerate single-key arc of the routed
/// target. Invalid hints (replica peels, unknown ownership) teach nothing.
struct OwnerHint {
  NodeInfo owner;
  Key arc_start = 0;
  Key arc_end = 0;
  bool valid = false;
};

/// Per-node learned owner map, sorted by arc end on the ring.
class RouteCache {
 public:
  explicit RouteCache(size_t capacity = 256) : capacity_(capacity) {}

  /// The cached owner whose arc contains `target`, or an invalid NodeInfo.
  NodeInfo Lookup(Key target) const;

  /// Learns a hint (insert or refresh). Returns true when it REPLACED an
  /// entry naming a different owner — the staleness signal.
  bool Teach(const OwnerHint& hint);

  /// Drops every arc owned by `host` (failed send / peer removal).
  void ForgetHost(sim::HostId host);

  /// Drops everything (membership epoch change).
  void Clear() { arcs_.clear(); }

  /// Fences the cache behind a new membership epoch and PURGES every entry
  /// taught under an older one, returning how many were dropped. An
  /// ownership flip (detector eviction, ring merge after a partition heal)
  /// invalidates arcs wholesale — hints learned across a since-healed split
  /// must not linger as tombstones that capacity-starve fresh arcs; the
  /// caller counts the purge into dht.route_cache_stale. The fast path
  /// falls back to ring routing until replies re-teach arcs under the new
  /// epoch.
  size_t FenceEpoch();
  uint64_t epoch() const { return epoch_; }

  size_t size() const { return arcs_.size(); }

 private:
  struct Entry {
    Key arc_end = 0;     ///< Sort key; unique within the cache.
    Key arc_start = 0;
    NodeInfo owner;
    uint64_t seq = 0;    ///< Insertion order; oldest evicted at capacity.
    uint64_t epoch = 0;  ///< Membership epoch the entry was taught under.
  };

  /// Entries in ascending arc-end order. Lookup probes the first few arc
  /// ends clockwise of the target, which finds the covering arc among
  /// disjoint (live) arcs and tolerates stale exact-key entries layered
  /// inside a wider arc.
  std::vector<Entry> arcs_;
  size_t capacity_;
  uint64_t seq_ = 0;
  uint64_t epoch_ = 0;  ///< Current membership epoch; older entries fenced.
};

}  // namespace pierstack::dht
