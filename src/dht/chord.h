// Chord-style routing state: successor list, predecessor and finger table.
//
// Follows Stoica et al. (SIGCOMM'01): node n owns keys in (predecessor, n];
// finger[i] is the first node clockwise of n + 2^i; lookups forward to the
// closest preceding finger, giving O(log N) hops.
//
// The table exposes mutators (SetPredecessor, OfferSuccessor, SetFinger,
// RemovePeer) used by DhtNode's join/stabilization protocol.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "dht/routing.h"

namespace pierstack::dht {

class ChordRouting : public RoutingTable {
 public:
  static constexpr size_t kNumFingers = 64;
  static constexpr size_t kDefaultSuccessorListSize = 8;

  explicit ChordRouting(NodeInfo self,
                        size_t successor_list_size = kDefaultSuccessorListSize);

  NodeInfo self() const override { return self_; }
  void BuildStatic(const std::vector<NodeInfo>& sorted_members) override;
  bool IsOwner(Key target) const override;
  NodeInfo NextHop(Key target) const override;
  /// Fingers and successors strictly inside (self, target): every one of
  /// them strictly shrinks the clockwise distance to the target, so any
  /// choice among them terminates.
  void AppendProgressCandidates(Key target,
                                std::vector<NodeInfo>* out) const override;
  Key RouteDistance(Key peer_id, Key target) const override {
    return ClockwiseDistance(peer_id, target);
  }
  std::vector<NodeInfo> ReplicaTargets(size_t k) const override;
  void RemovePeer(sim::HostId host) override;
  std::vector<NodeInfo> KnownPeers() const override;

  /// Immediate successor (self if the ring is a singleton).
  NodeInfo successor() const;
  const std::vector<NodeInfo>& successor_list() const { return successors_; }
  NodeInfo predecessor() const { return predecessor_; }

  /// Fires after any mutation that actually CHANGED ownership-relevant
  /// state. `ownership_changed`: the predecessor or primary successor
  /// moved — this node's owned arc (or its view of the ring neighborhood)
  /// shifted, a membership epoch boundary. `replica_set_changed`: the
  /// watched successor prefix (set_replica_watch) changed membership —
  /// the replica set needs an anti-entropy round even when the arc and
  /// primary successor held still. Steady-state refreshes that rewrite
  /// identical state fire nothing.
  using MembershipListener =
      std::function<void(bool ownership_changed, bool replica_set_changed)>;
  void set_membership_listener(MembershipListener listener) {
    listener_ = std::move(listener);
  }
  /// How many leading successors the replica-set-change signal watches
  /// (replication - 1 in DhtNode; 0 disables the signal).
  void set_replica_watch(size_t k) { replica_watch_ = k; }

  /// Overwrites the predecessor pointer.
  void SetPredecessor(NodeInfo p);
  void ClearPredecessor() { SetPredecessor(NodeInfo{}); }

  /// Considers `candidate` as a new immediate successor; adopts it if it
  /// falls in (self, current successor). Returns true if adopted.
  bool OfferSuccessor(NodeInfo candidate);

  /// Replaces the successor list wholesale (from a stabilize reply:
  /// [successor] + successor's own list, truncated).
  void SetSuccessorList(std::vector<NodeInfo> list);

  /// Drops the current head of the successor list (failure suspected).
  /// Returns false if the list would become empty (singleton fallback).
  bool DropPrimarySuccessor();

  void SetFinger(size_t i, NodeInfo n);
  NodeInfo finger(size_t i) const { return fingers_[i]; }

  /// The finger table start key for slot i: self + 2^i.
  Key FingerStart(size_t i) const {
    return self_.id + (Key{1} << i);
  }

 private:
  /// The ownership-relevant state fingerprint taken around every mutation;
  /// comparing before/after drives the membership listener.
  struct MembershipSnapshot {
    sim::HostId predecessor = kInvalidHostSentinel;
    sim::HostId primary_successor = kInvalidHostSentinel;
    std::vector<sim::HostId> replica_prefix;
  };
  static constexpr sim::HostId kInvalidHostSentinel = UINT32_MAX;

  MembershipSnapshot TakeSnapshot() const;

  /// Calls `fn` once per run of adjacent identical fingers. In a ring of N
  /// nodes about 64 - log2(N) low fingers all name the immediate successor;
  /// a second visit of the same entry can change no pick, so routing
  /// visits each run once.
  template <typename Fn>
  void ForEachDistinctFinger(Fn&& fn) const {
    for (size_t i = 0; i < kNumFingers; ++i) {
      if (i == 0 || !(fingers_[i] == fingers_[i - 1])) fn(fingers_[i]);
    }
  }

  /// Compares the post-mutation state to `before` and fires the listener
  /// on a real change.
  void NotifyIfChanged(const MembershipSnapshot& before);

  NodeInfo self_;
  size_t successor_list_size_;
  NodeInfo predecessor_;
  std::vector<NodeInfo> successors_;           // ordered clockwise from self
  std::array<NodeInfo, kNumFingers> fingers_;  // may contain invalid entries
  MembershipListener listener_;
  size_t replica_watch_ = 0;
};

}  // namespace pierstack::dht
