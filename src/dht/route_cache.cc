#include "dht/route_cache.h"

#include <algorithm>

namespace pierstack::dht {

namespace {

/// The first arc whose end is at or past `key` in plain key order (end()
/// when none is; the caller wraps).
template <typename Arcs>
auto ArcLowerBound(Arcs& arcs, Key key) {
  return std::lower_bound(arcs.begin(), arcs.end(), key,
                          [](const auto& e, Key k) { return e.arc_end < k; });
}

}  // namespace

NodeInfo RouteCache::Lookup(Key target) const {
  if (arcs_.empty()) return NodeInfo{};
  // The covering arc (if any) has its end at or clockwise of the target;
  // probe a few successive arc ends so a stale exact-key entry sitting
  // inside a wider live arc doesn't mask it.
  constexpr int kProbes = 3;
  auto it = ArcLowerBound(arcs_, target);
  for (int i = 0; i < kProbes; ++i, ++it) {
    if (it == arcs_.end()) it = arcs_.begin();
    // Stale-epoch entries are fenced, not returned: a fast path into a
    // pre-churn arc falls back to ring routing (the only path that is
    // correct while ownership is in motion).
    if (it->epoch == epoch_ &&
        InOpenClosed(it->arc_start, it->arc_end, target)) {
      return it->owner;
    }
  }
  return NodeInfo{};
}

bool RouteCache::Teach(const OwnerHint& hint) {
  if (!hint.valid || !hint.owner.valid()) return false;
  Entry entry{hint.arc_end, hint.arc_start, hint.owner, seq_++, epoch_};
  auto it = ArcLowerBound(arcs_, hint.arc_end);
  if (it != arcs_.end() && it->arc_end == hint.arc_end) {
    // A fenced entry being overwritten is expired knowledge, not a
    // staleness signal — only a same-epoch replacement naming a different
    // owner is.
    bool replaced_other_owner =
        it->epoch == epoch_ && it->owner.host != hint.owner.host;
    *it = entry;
    return replaced_other_owner;
  }
  arcs_.insert(it, entry);
  if (arcs_.size() > capacity_) {
    // Evict the oldest-taught arc. Linear scan: the cache is small and
    // eviction only runs past capacity.
    arcs_.erase(std::min_element(
        arcs_.begin(), arcs_.end(),
        [](const Entry& a, const Entry& b) { return a.seq < b.seq; }));
  }
  return false;
}

size_t RouteCache::FenceEpoch() {
  ++epoch_;
  size_t before = arcs_.size();
  arcs_.erase(std::remove_if(arcs_.begin(), arcs_.end(),
                             [this](const Entry& e) {
                               return e.epoch != epoch_;
                             }),
              arcs_.end());
  return before - arcs_.size();
}

void RouteCache::ForgetHost(sim::HostId host) {
  arcs_.erase(std::remove_if(arcs_.begin(), arcs_.end(),
                             [host](const Entry& e) {
                               return e.owner.host == host;
                             }),
              arcs_.end());
}

}  // namespace pierstack::dht
