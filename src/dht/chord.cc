#include "dht/chord.h"

#include <algorithm>
#include <cassert>

namespace pierstack::dht {

ChordRouting::ChordRouting(NodeInfo self, size_t successor_list_size)
    : self_(self), successor_list_size_(successor_list_size) {
  assert(successor_list_size >= 1);
}

ChordRouting::MembershipSnapshot ChordRouting::TakeSnapshot() const {
  MembershipSnapshot s;
  if (predecessor_.valid()) s.predecessor = predecessor_.host;
  if (!successors_.empty()) s.primary_successor = successors_.front().host;
  for (size_t i = 0; i < replica_watch_ && i < successors_.size(); ++i) {
    s.replica_prefix.push_back(successors_[i].host);
  }
  return s;
}

void ChordRouting::NotifyIfChanged(const MembershipSnapshot& before) {
  if (!listener_) return;
  MembershipSnapshot after = TakeSnapshot();
  bool ownership = after.predecessor != before.predecessor ||
                   after.primary_successor != before.primary_successor;
  bool replicas = after.replica_prefix != before.replica_prefix;
  if (ownership || replicas) listener_(ownership, replicas);
}

void ChordRouting::BuildStatic(const std::vector<NodeInfo>& sorted) {
  assert(!sorted.empty());
  MembershipSnapshot before = TakeSnapshot();
  // Locate self in the sorted ring.
  size_t n = sorted.size();
  size_t my_pos = n;
  for (size_t i = 0; i < n; ++i) {
    if (sorted[i].host == self_.host) {
      my_pos = i;
      break;
    }
  }
  assert(my_pos < n && "self must be a member");

  for (const auto& m : sorted) ForgetRememberedPeer(m.host);
  predecessor_ = sorted[(my_pos + n - 1) % n];
  successors_.clear();
  for (size_t i = 1; i <= successor_list_size_ && i < n + 1; ++i) {
    NodeInfo s = sorted[(my_pos + i) % n];
    if (s.host == self_.host) break;  // wrapped all the way around
    successors_.push_back(s);
  }

  // finger[i] = first node clockwise of self + 2^i.
  for (size_t i = 0; i < kNumFingers; ++i) {
    Key start = FingerStart(i);
    // Binary search over the sorted ring for the first id >= start,
    // wrapping to sorted[0].
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), start,
        [](const NodeInfo& a, Key k) { return a.id < k; });
    NodeInfo f = (it == sorted.end()) ? sorted.front() : *it;
    fingers_[i] = f;
  }
  NotifyIfChanged(before);
}

void ChordRouting::SetPredecessor(NodeInfo p) {
  MembershipSnapshot before = TakeSnapshot();
  if (p.valid()) ForgetRememberedPeer(p.host);
  predecessor_ = p;
  NotifyIfChanged(before);
}

bool ChordRouting::IsOwner(Key target) const {
  if (successors_.empty()) return true;  // singleton ring
  if (!predecessor_.valid()) {
    // Predecessor unknown (mid-join). Claim ownership only for keys in
    // (largest-known-peer, self] to stay conservative.
    return false;
  }
  return InOpenClosed(predecessor_.id, self_.id, target);
}

NodeInfo ChordRouting::successor() const {
  return successors_.empty() ? self_ : successors_.front();
}

NodeInfo ChordRouting::NextHop(Key target) const {
  if (successors_.empty()) return self_;
  if (IsOwner(target)) return self_;
  NodeInfo succ = successors_.front();
  // Key in (self, successor]: the successor owns it.
  if (InOpenClosed(self_.id, succ.id, target)) return succ;
  // Closest preceding node among fingers and successor list.
  NodeInfo best = succ;
  Key best_dist = ClockwiseDistance(best.id, target);
  auto consider = [&](const NodeInfo& cand) {
    if (!cand.valid() || cand.host == self_.host) return;
    if (!InOpenOpen(self_.id, target, cand.id)) return;
    Key d = ClockwiseDistance(cand.id, target);
    if (d < best_dist) {
      best = cand;
      best_dist = d;
    }
  };
  ForEachDistinctFinger(consider);
  for (const auto& s : successors_) consider(s);
  return best;
}

void ChordRouting::AppendProgressCandidates(Key target,
                                            std::vector<NodeInfo>* out) const {
  auto consider = [&](const NodeInfo& cand) {
    if (!cand.valid() || cand.host == self_.host) return;
    if (!InOpenOpen(self_.id, target, cand.id)) return;
    out->push_back(cand);
  };
  ForEachDistinctFinger(consider);
  for (const auto& s : successors_) consider(s);
}

std::vector<NodeInfo> ChordRouting::ReplicaTargets(size_t k) const {
  std::vector<NodeInfo> out;
  for (const auto& s : successors_) {
    if (out.size() >= k) break;
    if (s.host == self_.host) continue;
    out.push_back(s);
  }
  return out;
}

void ChordRouting::RemovePeer(sim::HostId host) {
  MembershipSnapshot before = TakeSnapshot();
  // Capture the evicted peer's identity before clearing it: it may be on
  // the far side of a partition, and the remembered set is the only thread
  // back to it once every table slot is gone.
  if (predecessor_.valid() && predecessor_.host == host) {
    Remember(predecessor_);
    predecessor_ = NodeInfo{};
  }
  for (const auto& s : successors_) {
    if (s.host == host) {
      Remember(s);
      break;
    }
  }
  for (const auto& f : fingers_) {
    if (f.valid() && f.host == host) {
      Remember(f);
      break;
    }
  }
  successors_.erase(
      std::remove_if(successors_.begin(), successors_.end(),
                     [&](const NodeInfo& n) { return n.host == host; }),
      successors_.end());
  for (auto& f : fingers_) {
    if (f.valid() && f.host == host) f = NodeInfo{};
  }
  NotifyIfChanged(before);
}

std::vector<NodeInfo> ChordRouting::KnownPeers() const {
  std::vector<NodeInfo> out;
  auto add = [&](const NodeInfo& n) {
    if (!n.valid() || n.host == self_.host) return;
    for (const auto& e : out) {
      if (e.host == n.host) return;
    }
    out.push_back(n);
  };
  if (predecessor_.valid()) add(predecessor_);
  for (const auto& s : successors_) add(s);
  for (const auto& f : fingers_) add(f);
  return out;
}

bool ChordRouting::OfferSuccessor(NodeInfo candidate) {
  if (!candidate.valid() || candidate.host == self_.host) return false;
  ForgetRememberedPeer(candidate.host);
  MembershipSnapshot before = TakeSnapshot();
  if (successors_.empty()) {
    successors_.push_back(candidate);
    NotifyIfChanged(before);
    return true;
  }
  NodeInfo cur = successors_.front();
  if (InOpenOpen(self_.id, cur.id, candidate.id)) {
    successors_.insert(successors_.begin(), candidate);
    if (successors_.size() > successor_list_size_) successors_.pop_back();
    NotifyIfChanged(before);
    return true;
  }
  return false;
}

void ChordRouting::SetSuccessorList(std::vector<NodeInfo> list) {
  // Drop self-references and truncate.
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&](const NodeInfo& n) {
                              return !n.valid() || n.host == self_.host;
                            }),
             list.end());
  if (list.size() > successor_list_size_) list.resize(successor_list_size_);
  if (list.empty()) return;
  for (const auto& n : list) ForgetRememberedPeer(n.host);
  MembershipSnapshot before = TakeSnapshot();
  successors_ = std::move(list);
  NotifyIfChanged(before);
}

bool ChordRouting::DropPrimarySuccessor() {
  if (successors_.empty()) return false;
  MembershipSnapshot before = TakeSnapshot();
  successors_.erase(successors_.begin());
  NotifyIfChanged(before);
  return !successors_.empty();
}

void ChordRouting::SetFinger(size_t i, NodeInfo n) {
  assert(i < kNumFingers);
  if (n.valid()) ForgetRememberedPeer(n.host);
  fingers_[i] = n;
}

}  // namespace pierstack::dht
