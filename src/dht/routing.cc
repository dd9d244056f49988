#include "dht/routing.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace pierstack::dht {

namespace {

// Congestion penalties are "expected extra hops", the currency of the
// remaining-distance proxy, so a detour is taken exactly when the queueing
// it avoids is worth more than the ring progress it gives up. One hop is
// charged per queued message past the slack (plain request/reply
// pipelining is not congestion), per 16 KiB in flight past 32 KiB, and per
// 100ms of smoothed delivery latency past 50ms (the network's base latency
// is not congestion; the decayed EWMA catches slow hosts whose queue
// happens to be empty right now).
constexpr uint32_t kInflightMessageSlack = 2;
constexpr size_t kInflightByteSlack = 32 * 1024;
constexpr size_t kInflightBytesPerHop = 16 * 1024;
constexpr sim::SimTime kLatencySlack = 50 * sim::kMillisecond;
constexpr sim::SimTime kLatencyPerHop = 100 * sim::kMillisecond;

/// Bit width of a ring distance — the expected-remaining-hops proxy
/// (halving the distance per hop is what greedy O(log N) routing does).
int DistanceBits(Key d) {
  int bits = 0;
  while (d != 0) {
    ++bits;
    d >>= 1;
  }
  return bits;
}

/// The classic policy: delegate to the table's own greedy pick.
class ClassicGreedyPolicy : public NextHopPolicy {
 public:
  NextHopChoice Choose(const RoutingTable& table, Key target,
                       const LoadProbe&) const override {
    return NextHopChoice{table.NextHop(target), false};
  }
};

class CongestionAwarePolicy : public NextHopPolicy {
 public:
  NextHopChoice Choose(const RoutingTable& table, Key target,
                       const LoadProbe& probe) const override {
    NodeInfo classic = table.NextHop(target);
    if (classic.host == table.self().host) {
      // The table says deliver locally (owner, or best-effort on a stale
      // table); a policy never overrides delivery.
      return NextHopChoice{classic, false};
    }
    double classic_penalty = CongestionPenaltyHops(probe(classic.host));
    if (classic_penalty <= 0) {
      // The classic pick is not backed up: route exactly like classic
      // Chord/Bamboo. Detours exist to dodge congestion, not to second-
      // guess the overlay's own distance metric.
      return NextHopChoice{classic, false};
    }
    candidates_.clear();
    table.AppendProgressCandidates(target, &candidates_);
    double classic_score =
        static_cast<double>(
            DistanceBits(table.RouteDistance(classic.id, target))) +
        classic_penalty;
    NodeInfo best;
    double best_score = 0;
    Key best_dist = 0;
    seen_hosts_.clear();
    for (const NodeInfo& cand : candidates_) {
      if (!cand.valid() || cand.host == classic.host) continue;
      // Candidates may repeat (fingers, successors and leaves overlap);
      // a host's first occurrence stands for it.
      if (std::find(seen_hosts_.begin(), seen_hosts_.end(), cand.host) !=
          seen_hosts_.end()) {
        continue;
      }
      seen_hosts_.push_back(cand.host);
      Key dist = table.RouteDistance(cand.id, target);
      double bits = static_cast<double>(DistanceBits(dist));
      // A penalty is never negative, so a candidate whose distance alone
      // reaches the classic score can never be returned: skip its probe.
      if (bits >= classic_score) continue;
      double score = bits + CongestionPenaltyHops(probe(cand.host));
      // Deterministic tie-break: smaller remaining distance, then id.
      if (!best.valid() || score < best_score ||
          (score == best_score &&
           (dist < best_dist || (dist == best_dist && cand.id < best.id)))) {
        best = cand;
        best_score = score;
        best_dist = dist;
      }
    }
    if (best.valid() && best_score < classic_score) {
      return NextHopChoice{best, true};
    }
    // All alternatives are at least as bad (or none exist): the greedy
    // fallback guarantee — never worse than classic routing.
    return NextHopChoice{classic, false};
  }

 private:
  static double CongestionPenaltyHops(const sim::DestinationLoad& load) {
    double hops = 0;
    if (load.in_flight_messages > kInflightMessageSlack) {
      hops += static_cast<double>(load.in_flight_messages -
                                  kInflightMessageSlack);
    }
    if (load.in_flight_bytes > kInflightByteSlack) {
      hops += static_cast<double>(load.in_flight_bytes - kInflightByteSlack) /
              static_cast<double>(kInflightBytesPerHop);
    }
    if (load.smoothed_latency > kLatencySlack) {
      hops += static_cast<double>(load.smoothed_latency - kLatencySlack) /
              static_cast<double>(kLatencyPerHop);
    }
    return hops;
  }

  /// Scratch buffers — Choose is on the per-message fast path and must not
  /// allocate once warmed. Policies are per-node, single-threaded.
  mutable std::vector<NodeInfo> candidates_;
  mutable std::vector<sim::HostId> seen_hosts_;
};

}  // namespace

RoutingPolicyKind DefaultRoutingPolicyKind() {
  const char* env = std::getenv("PIERSTACK_ROUTING_POLICY");
  if (env != nullptr && std::string_view(env) == "classic") {
    return RoutingPolicyKind::kClassicChord;
  }
  return RoutingPolicyKind::kCongestionAware;
}

std::unique_ptr<NextHopPolicy> MakeNextHopPolicy(RoutingPolicyKind kind) {
  switch (kind) {
    case RoutingPolicyKind::kClassicChord:
      return std::make_unique<ClassicGreedyPolicy>();
    case RoutingPolicyKind::kCongestionAware:
      return std::make_unique<CongestionAwarePolicy>();
  }
  return nullptr;
}

}  // namespace pierstack::dht
