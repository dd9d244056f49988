// Routing module shared by the two structured overlays: the per-node
// routing *table* abstraction plus the pluggable next-hop *policy* that
// picks among its candidates.
//
// The paper's system runs on the Bamboo DHT but depends only on generic
// key-based routing (O(log N) hops) and key→owner agreement. We provide two
// interchangeable table implementations — a Chord-style ring (chord.h) and
// a Bamboo/Pastry-style prefix router (bamboo.h) — so the overlay choice
// can be ablated, and two next-hop policies:
//
//  * kClassicChord — the table's own greedy pick, purely by ID distance
//    (the legacy behavior, bit-for-bit).
//  * kCongestionAware — Bamboo-style load-balanced routing: among the
//    peers that make strict ring progress toward the target, score each
//    candidate by remaining-distance (an expected-hops proxy) plus a
//    congestion penalty from the destination's sim::DestinationLoad
//    (queued messages/bytes + decayed latency EWMA), and route around
//    backed-up hops. Every candidate makes strict progress in the
//    overlay's own metric, so biased routing terminates and never loops;
//    with no live load signal it degrades to the classic greedy pick.
//    Candidate lists may repeat a peer; the policy takes each host's first
//    occurrence and probes each distinct host at most once. It skips the
//    probe of a candidate whose distance term alone reaches the classic
//    pick's score: penalties are never negative, so that candidate could
//    never be chosen, and the prune changes no decision.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dht/id.h"

namespace pierstack::dht {

/// Which overlay implementation a node uses.
enum class OverlayKind {
  kChord,
  kBamboo,
};

/// Which next-hop policy a node routes with.
enum class RoutingPolicyKind {
  /// The overlay table's own greedy, distance-only choice — the legacy
  /// routing path, preserved exactly (owner-location cache disabled too).
  kClassicChord,
  /// Congestion-biased choice over the progress-candidate set.
  kCongestionAware,
};

/// The deployment-wide default: kCongestionAware, unless the environment
/// variable PIERSTACK_ROUTING_POLICY is set to "classic" (the CI matrix leg
/// that proves the legacy routing path stays green runs tier-1 under it).
RoutingPolicyKind DefaultRoutingPolicyKind();

/// Per-node routing state: next-hop selection plus ownership test.
class RoutingTable {
 public:
  virtual ~RoutingTable() = default;

  /// This node's identity.
  virtual NodeInfo self() const = 0;

  /// Rebuilds the table from a full, id-sorted membership list (static
  /// deployment — the common case in the experiments).
  virtual void BuildStatic(const std::vector<NodeInfo>& sorted_members) = 0;

  /// True iff this node is responsible for `target`.
  virtual bool IsOwner(Key target) const = 0;

  /// The neighbor to forward a message for `target` to; returns self() when
  /// the message should be delivered locally (owner, or no strictly closer
  /// node is known — best-effort delivery on stale tables).
  virtual NodeInfo NextHop(Key target) const = 0;

  /// Appends every known peer a policy may forward a message for `target`
  /// to: each candidate makes STRICT progress toward the target in the
  /// overlay's own routing metric, so any choice among them terminates and
  /// never loops. NOTE: the classic NextHop pick is NOT guaranteed to be
  /// in this set — a Bamboo prefix hop can extend the shared prefix while
  /// being numerically farther than self — so policies must score the
  /// classic pick separately rather than expect it among the candidates.
  /// Candidates may repeat (fingers and successors overlap, and one host
  /// may even appear under two ids on a stale table); policies dedupe by
  /// host, keeping each host's first occurrence.
  virtual void AppendProgressCandidates(Key target,
                                        std::vector<NodeInfo>* out) const = 0;

  /// The overlay's routing distance from a peer at `peer_id` to `target` —
  /// what greedy routing minimizes (clockwise distance on Chord, numeric
  /// ring distance on Bamboo). Smaller = fewer expected remaining hops.
  virtual Key RouteDistance(Key peer_id, Key target) const = 0;

  /// Nodes that should hold replicas of this node's keys (closest k peers
  /// in the overlay's own metric), excluding self. May return fewer than k.
  virtual std::vector<NodeInfo> ReplicaTargets(size_t k) const = 0;

  /// Drops a failed peer from all routing state. Implementations record the
  /// evicted peer in the remembered-peers set (see RememberedPeers) before
  /// forgetting it.
  virtual void RemovePeer(sim::HostId host) = 0;

  /// All distinct peers currently known (for diagnostics/tests).
  virtual std::vector<NodeInfo> KnownPeers() const = 0;

  /// Peers evicted from this table (detector timeouts, refused sends) that
  /// may merely be on the far side of a partition rather than dead. The
  /// ring-merge reconciliation timer (dht/node.cc) periodically probes one
  /// of these; contact with a live remembered peer is how two rings that
  /// healed around each other during a split find each other again. Bounded
  /// FIFO (oldest evicted first out), deduped by host, and an entry is
  /// dropped as soon as the peer is re-learned through any table mutation.
  const std::vector<NodeInfo>& RememberedPeers() const { return remembered_; }

  /// Seeds a remembered peer directly — used by durable node restart to
  /// carry the pre-crash peer list across the reboot.
  void RememberPeer(const NodeInfo& peer) { Remember(peer); }

  /// Drops `host` from the remembered set (peer re-learned or confirmed
  /// dead by a failed reconciliation probe).
  void ForgetRememberedPeer(sim::HostId host) {
    for (auto it = remembered_.begin(); it != remembered_.end(); ++it) {
      if (it->host == host) {
        remembered_.erase(it);
        return;
      }
    }
  }

 protected:
  /// Bound chosen to comfortably cover one side of a bisection of the
  /// deployments the harnesses run (tens of nodes) without letting a
  /// long-running churny node accumulate unbounded dead peers.
  static constexpr size_t kRememberedPeerLimit = 16;

  void Remember(const NodeInfo& peer) {
    if (!peer.valid()) return;
    ForgetRememberedPeer(peer.host);
    if (remembered_.size() >= kRememberedPeerLimit) {
      remembered_.erase(remembered_.begin());
    }
    remembered_.push_back(peer);
  }

 private:
  std::vector<NodeInfo> remembered_;
};

/// Pressure probe a policy scores candidates with; wired to
/// sim::Network::LoadOf by DhtNode.
using LoadProbe = std::function<sim::DestinationLoad(sim::HostId)>;

/// One next-hop decision.
struct NextHopChoice {
  NodeInfo next;        ///< self() means deliver locally (same as NextHop).
  bool detour = false;  ///< True when load bias overrode the classic pick.
};

/// Pluggable next-hop selection over a RoutingTable's candidates.
class NextHopPolicy {
 public:
  virtual ~NextHopPolicy() = default;
  virtual NextHopChoice Choose(const RoutingTable& table, Key target,
                               const LoadProbe& probe) const = 0;
};

/// Builds the policy for `kind`.
std::unique_ptr<NextHopPolicy> MakeNextHopPolicy(RoutingPolicyKind kind);

}  // namespace pierstack::dht
