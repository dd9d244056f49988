#include "dht/node.h"

#include <algorithm>
#include <cassert>

#include "common/bytes.h"
#include "dht/bamboo.h"
#include "dht/chord.h"

namespace pierstack::dht {

namespace {

/// Wire-size estimate for a NodeInfo (id + address).
constexpr size_t kNodeInfoBytes = 12;

constexpr size_t kRouteCacheCapacity = 256;  ///< Owner arcs remembered.
constexpr uint32_t kMaxRouteHops = 128;      ///< Hops before a route drops.
constexpr sim::SimTime kStabilizeInterval = 500 * sim::kMillisecond;
constexpr sim::SimTime kFixFingerInterval = 250 * sim::kMillisecond;
/// Proactive failure detector: periodic liveness pings to the ring
/// neighborhood (predecessor, leading successors, a rotating finger), with
/// eviction after kPingMissThreshold unanswered rounds. Runs wherever
/// maintenance timers run; decoupled from the stabilize cadence so
/// suspicion latency is bounded by the ping interval, not by whoever
/// stabilize happens to probe. Matters most under partitions, where
/// refused-send detection never triggers (the peer is reachable in neither
/// direction, so nothing is ever sent to it to be refused).
constexpr sim::SimTime kPingInterval = 300 * sim::kMillisecond;
constexpr uint32_t kPingMissThreshold = 2;
/// Re-sends of a Get/MultiGet after an attempt timeout; the attempts share
/// kGetTimeout (see AttemptTimeout).
constexpr uint32_t kGetRetries = 2;
/// A stabilize round declares a silent successor failed after this long.
constexpr sim::SimTime kRpcTimeout = 2 * sim::kSecond;
/// Anti-entropy cadence: a node whose ownership or replica set changed
/// re-syncs its owned arc once per interval until clean.
constexpr sim::SimTime kResyncInterval = 1 * sim::kSecond;
/// Ring-merge cadence: a node holding remembered (evicted) peers probes one
/// per interval. A live answer means the peer was partitioned, not dead,
/// and the exchange knits the two rings back together. Nodes that evicted
/// nobody send nothing.
constexpr sim::SimTime kReconcileInterval = 2 * sim::kSecond;

/// Deadline of Get/MultiGet attempt `attempt` (0-based): the geometric
/// schedule T0, 2*T0, 4*T0 whose kGetRetries+1 attempts sum to kGetTimeout,
/// so retries recover from a mid-flight owner crash WITHOUT extending the
/// caller-visible deadline.
sim::SimTime AttemptTimeout(uint32_t attempt) {
  constexpr uint64_t kSlices = (uint64_t{1} << (kGetRetries + 1)) - 1;
  return (kGetTimeout / kSlices) << attempt;
}

std::unique_ptr<RoutingTable> MakeRouting(OverlayKind kind, NodeInfo self) {
  switch (kind) {
    case OverlayKind::kChord:
      return std::make_unique<ChordRouting>(self);
    case OverlayKind::kBamboo:
      return std::make_unique<BambooRouting>(self);
  }
  return nullptr;
}

}  // namespace

/// Wire-size estimate of an OwnerHint riding a reply (owner + arc + flag).
constexpr size_t kOwnerHintBytes = 29;

struct AckBody {
  uint64_t req_id;
  OwnerHint hint;
};

struct NotifyBody {
  NodeInfo candidate;
};

struct GetPredecessorBody {
  uint64_t seq;
};

struct LeaveBody {
  NodeInfo departing;
  std::vector<NodeInfo> successor_list;
  NodeInfo predecessor;
  bool to_predecessor;
};

struct ResyncDigestBody {
  std::string ns;
  std::vector<std::pair<Key, LocalStore::KeyDigest>> digests;
  /// The digested arc (arc_start, arc_end]. When set, the receiver also
  /// pushes back its own diverged entries INSIDE the arc — keys the sender
  /// has never heard of (written on the other side of a partition) carry
  /// no digest to mismatch, so without the arc bounds they would never
  /// flow back.
  bool arc_valid = false;
  Key arc_start = 0;
  Key arc_end = 0;
};

struct ResyncPullBody {
  std::string ns;
  std::vector<Key> keys;
};

/// Ring-merge probe/reply payload: the sender's identity and successor
/// view. Each side offers the other's successors to its own list; loopy
/// stabilization does the rest.
struct MergeBody {
  NodeInfo sender;
  std::vector<NodeInfo> successors;
};

DhtNode::DhtNode(sim::Network* network, Key id, const DhtOptions& options,
                 DhtMetrics* metrics)
    : network_(network), options_(options), metrics_(metrics),
      route_cache_(kRouteCacheCapacity) {
  assert(network != nullptr);
  assert(metrics != nullptr);
  sim::HostId host = network->AddHost(this);
  routing_ = MakeRouting(options.overlay, NodeInfo{id, host});
  policy_ = MakeNextHopPolicy(options.routing_policy);
  load_probe_ = [this](sim::HostId h) { return network_->LoadOf(h); };
  if (ChordRouting* c = chord()) {
    c->set_replica_watch(
        options_.replication > 1 ? options_.replication - 1 : 0);
    c->set_membership_listener([this](bool ownership, bool replicas) {
      OnMembershipChange(ownership, replicas);
    });
  }
}

DhtNode::~DhtNode() = default;

ChordRouting* DhtNode::chord() const {
  return options_.overlay == OverlayKind::kChord
             ? static_cast<ChordRouting*>(routing_.get())
             : nullptr;
}

void DhtNode::BootstrapStatic(const std::vector<NodeInfo>& sorted_members) {
  routing_->BuildStatic(sorted_members);
  // A static rebuild is a membership epoch change: every learned arc may
  // name a superseded owner, so the cache restarts cold.
  route_cache_.Clear();
  bool was_joined = joined_;
  joined_ = true;
  if (options_.maintenance && !was_joined) StartMaintenanceTimers();
}

void DhtNode::JoinViaBootstrap(sim::HostId bootstrap) {
  assert(chord() != nullptr && "dynamic join implemented for Chord");
  RouteMsg m;
  m.target = id();
  m.origin = info();
  m.app_type = kAppJoinLookup;
  m.app_bytes = kNodeInfoBytes;
  // The joiner is not yet in the ring, so it cannot route; hand the lookup
  // to the bootstrap node, which forwards it like any other routed message.
  ++metrics_->routes_initiated;
  network_->Send(host(), bootstrap,
                 sim::Message::Make<RouteMsg>(
                     kRouteStep, "dht.route",
                     RouteHeaderBytes() + m.app_bytes, std::move(m)));
}

void DhtNode::LeaveGracefully() {
  if (!joined_ || crashed_) return;
  ChordRouting* c = chord();
  NodeInfo succ = c ? c->successor() : NodeInfo{};
  NodeInfo pred = c ? c->predecessor() : NodeInfo{};
  if (c && succ.valid() && succ.host != host()) {
    // Hand all stored state to the successor.
    KeyTransferBody transfer;
    size_t bytes = 16;
    for (const auto& ns : store_.Namespaces()) {
      for (auto& v : store_.ExtractAll(ns)) {
        bytes += ns.size() + v.value.size() + 17;
        transfer.entries.push_back({ns, std::move(v)});
      }
    }
    if (!transfer.entries.empty()) {
      SendDirect(succ.host,
                 sim::Message::Make<KeyTransferBody>(
                     kKeyTransfer, "dht.transfer", bytes, std::move(transfer)));
    }
    LeaveBody to_succ{info(), {}, pred, /*to_predecessor=*/false};
    SendDirect(succ.host, sim::Message::Make<LeaveBody>(
                              kLeave, "dht.maint",
                              16 + 2 * kNodeInfoBytes, std::move(to_succ)));
  }
  if (c && pred.valid() && pred.host != host()) {
    LeaveBody to_pred{info(), c->successor_list(), NodeInfo{},
                      /*to_predecessor=*/true};
    SendDirect(pred.host,
               sim::Message::Make<LeaveBody>(
                   kLeave, "dht.maint",
                   16 + kNodeInfoBytes * (1 + to_pred.successor_list.size()),
                   std::move(to_pred)));
  }
  joined_ = false;
  CancelMaintenanceTimers();
  CancelPendingRequests();
  network_->SetHostUp(host(), false);
}

void DhtNode::Crash() {
  // Snapshot the durable image before going dark: the local store, plus
  // the peer list (known + remembered) — what a real node's disk carries
  // across a power cycle. Restart(durable=true) consumes it; an amnesia
  // restart ignores it.
  durable_image_.valid = true;
  durable_image_.store = store_;
  durable_image_.peers = routing_->KnownPeers();
  for (const NodeInfo& r : routing_->RememberedPeers()) {
    bool seen = false;
    for (const NodeInfo& p : durable_image_.peers) {
      if (p.host == r.host) {
        seen = true;
        break;
      }
    }
    if (!seen) durable_image_.peers.push_back(r);
  }
  crashed_ = true;
  joined_ = false;
  // A dead host must never fire another event: cancel every maintenance
  // timer, the stabilize timeout, and all pending request watchdogs.
  // Leaving them armed would be harmless for correctness (handlers check
  // crashed_) but would make the event count — and thus every later
  // tie-broken random draw — depend on WHEN the crash happened, breaking
  // fixed-seed determinism across otherwise identical runs.
  CancelMaintenanceTimers();
  CancelPendingRequests();
  network_->SetHostUp(host(), false);
}

void DhtNode::Restart(sim::HostId bootstrap, bool durable) {
  if (!crashed_) return;
  NodeInfo self = info();  // the ORIGINAL identity: same ring key, same host
  crashed_ = false;
  joined_ = false;
  // Routing state is rebuilt from scratch: pointers frozen at crash time
  // are stale-dangerous after arbitrary downtime, and the ring has long
  // since repaired around this node. Identity is what persists.
  routing_ = MakeRouting(options_.overlay, self);
  if (ChordRouting* c = chord()) {
    c->set_replica_watch(
        options_.replication > 1 ? options_.replication - 1 : 0);
    c->set_membership_listener([this](bool ownership, bool replicas) {
      OnMembershipChange(ownership, replicas);
    });
  }
  route_cache_.Clear();
  resync_dirty_ = false;
  next_finger_ = 0;
  detector_finger_ = 0;
  reconcile_cursor_ = 0;
  if (durable && durable_image_.valid) {
    // Recover the disk: the store comes back as of the crash, so post-join
    // anti-entropy digests mostly match and only diverged entries cross
    // the wire. The crash-time peer list seeds the remembered set — the
    // reconnection threads a rebooted node starts from.
    store_ = durable_image_.store;
    for (const NodeInfo& p : durable_image_.peers) {
      if (p.host != self.host) routing_->RememberPeer(p);
    }
  } else {
    store_ = LocalStore{};
  }
  network_->SetHostUp(self.host, true);
  JoinViaBootstrap(bootstrap);
}

void DhtNode::CancelMaintenanceTimers() {
  sim::Executor* s = network_->executor();
  s->Cancel(stabilize_timer_);
  stabilize_timer_ = sim::kInvalidEventId;
  s->Cancel(fix_finger_timer_);
  fix_finger_timer_ = sim::kInvalidEventId;
  s->Cancel(detector_timer_);
  detector_timer_ = sim::kInvalidEventId;
  s->Cancel(resync_timer_);
  resync_timer_ = sim::kInvalidEventId;
  s->Cancel(reconcile_timer_);
  reconcile_timer_ = sim::kInvalidEventId;
  s->Cancel(stabilize_timeout_);
  stabilize_timeout_ = sim::kInvalidEventId;
}

void DhtNode::CancelPendingRequests() {
  sim::Executor* s = network_->executor();
  for (auto& [id, p] : pending_gets_) s->Cancel(p.timeout);
  pending_gets_.clear();
  for (auto& [id, p] : pending_multi_gets_) s->Cancel(p.timeout);
  pending_multi_gets_.clear();
  pending_puts_.clear();
  ping_outstanding_.clear();
}

void DhtNode::Route(Key target, int app_type,
                    std::shared_ptr<const void> body, size_t body_bytes,
                    uint64_t req_id) {
  RouteAs(info(), target, app_type, std::move(body), body_bytes, req_id);
}

void DhtNode::RouteAs(const NodeInfo& origin, Key target, int app_type,
                      std::shared_ptr<const void> body, size_t body_bytes,
                      uint64_t req_id) {
  if (crashed_) return;
  ++metrics_->routes_initiated;
  RouteMsg m;
  m.target = target;
  m.origin = origin;
  m.app_type = app_type;
  m.req_id = req_id;
  m.app_bytes = body_bytes;
  m.app_body = std::move(body);
  ForwardOrDeliver(std::move(m));
}

void DhtNode::ForwardOrDeliver(RouteMsg msg) {
  if (crashed_) return;
  if (msg.final_hop) {
    // The key's predecessor decided we own this key; accept even if our own
    // predecessor pointer is stale.
    DeliverLocally(msg);
    return;
  }
  // Replica-aware single-key reads: a read routing through a node that
  // already replicates (ns, key) is answered here instead of spending the
  // remaining hops to the owner — the single-key analogue of the MultiGet
  // peel. Gated on actually holding data: an empty store might be
  // replication lag, so the request continues to the owner for the
  // authoritative (possibly empty) answer.
  if (msg.app_type == kAppGet && options_.replication > 1 && joined_ &&
      !routing_->IsOwner(msg.target)) {
    const auto& get = msg.body<GetBody>();
    if (store_.Has(get.ns, get.key, network_->executor()->now())) {
      ++metrics_->replica_peels;
      DeliverLocally(msg);
      return;
    }
  }
  // A replica-preferring MultiGet must travel the ring so the target's
  // predecessor can divert it to the owner's successor — a cached one-hop
  // send would land it straight on the (presumed slow) owner it is trying
  // to avoid.
  bool hedge_routed =
      msg.app_type == kAppGetMulti &&
      msg.body<MultiGetBody>().prefer_replica;
  // Origin-side owner cache: a learned arc covering the target turns the
  // whole ring walk into one direct hop (ring routing stays the fallback
  // on miss, stale entry, or refused send). Maintenance lookups keep the
  // real ring path — they exist to exercise and repair it.
  if (msg.hops == 0 && !hedge_routed && !routing_->IsOwner(msg.target) &&
      msg.app_type != kAppJoinLookup && msg.app_type != kAppFingerLookup &&
      OwnerCacheEnabled() && joined_) {
    if (TryCacheFastPath(msg)) return;
  }
  // Send failures act as a failure detector (TCP connect refused): drop the
  // dead peer from the tables and retry with the repaired state.
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (routing_->IsOwner(msg.target)) {
      DeliverLocally(msg);
      return;
    }
    NodeInfo next;
    bool final_hop = false;
    if (ChordRouting* c = chord()) {
      NodeInfo succ = c->successor();
      if (succ.valid() && succ.host != host() &&
          InOpenClosed(id(), succ.id, msg.target)) {
        // This node is the target key's predecessor — the hop that decides
        // the final delivery. A replica-preferring MultiGet is diverted
        // here to the owner's successor (which replicates the owner's arc)
        // instead of the owner itself; normal owner delivery is the
        // fallback when no live backup qualifies.
        if (hedge_routed) {
          const auto& get = msg.body<MultiGetBody>();
          if (!get.arc_valid && DivertMultiGetToReplica(msg, get)) return;
        }
        next = succ;
        final_hop = true;
      }
    }
    if (!next.valid()) {
      // Pluggable next-hop choice (dht/routing.h): the classic policy is
      // the table's distance-only pick; the congestion-aware policy may
      // detour around a backed-up hop, always within the progress set.
      NextHopChoice choice = policy_->Choose(*routing_, msg.target,
                                             load_probe_);
      if (choice.detour) ++metrics_->congestion_detours;
      next = choice.next;
      if (!next.valid() || next.host == host()) {
        DeliverLocally(msg);
        return;
      }
    }
    if (msg.hops >= kMaxRouteHops) {
      ++metrics_->routes_dropped;
      return;
    }
    RouteMsg out = msg;
    out.hops += 1;
    out.final_hop = final_hop;
    size_t bytes = RouteHeaderBytes() + out.app_bytes;
    if (network_->Send(host(), next.host,
                       sim::Message::Make<RouteMsg>(kRouteStep, "dht.route",
                                                    bytes, std::move(out)))) {
      return;
    }
    DropPeer(next.host);
  }
  ++metrics_->routes_dropped;
}

bool DhtNode::TryCacheFastPath(const RouteMsg& msg) {
  NodeInfo cached = route_cache_.Lookup(msg.target);
  if (!cached.valid() || cached.host == host()) {
    ++metrics_->route_cache_misses;
    return false;
  }
  RouteMsg out = msg;
  out.hops += 1;
  out.via_cache = true;
  // The saving is only provable if the prediction holds, so it is CLAIMED
  // here and COUNTED by the receiver on a hop-1 delivery.
  out.cache_skipped_hop = routing_->NextHop(msg.target).host != cached.host;
  size_t bytes = RouteHeaderBytes() + out.app_bytes;
  // NOT marked final_hop: if the entry is stale the receiver's own
  // ownership check fails and it forwards the message along the ring —
  // the fast path can mis-predict, never mis-deliver.
  if (network_->Send(host(), cached.host,
                     sim::Message::Make<RouteMsg>(kRouteStep, "dht.route",
                                                  bytes, std::move(out)))) {
    ++metrics_->route_cache_hits;  // a fast path actually taken
    return true;
  }
  // Connection refused: the remembered owner is gone. Invalidate and let
  // the caller ring-route with the repaired tables — for accounting this
  // send is a (stale-detecting) miss, not a hit.
  ++metrics_->route_cache_misses;
  ++metrics_->route_cache_stale;
  DropPeer(cached.host);
  return false;
}

void DhtNode::DeliverLocally(const RouteMsg& msg) {
  ++metrics_->routes_delivered;
  metrics_->total_hops += msg.hops;
  metrics_->max_hops.Update(msg.hops);
  if (msg.via_cache) {
    if (msg.hops == 1) {
      // The prediction held; the claimed skipped hop is now proven.
      if (msg.cache_skipped_hop) ++metrics_->hops_saved;
    } else {
      // Fast path landed on a stale-but-alive owner and had to continue
      // along the ring — a misprediction (the reply/hint re-teaches the
      // origin).
      ++metrics_->route_cache_stale;
    }
  }
  switch (msg.app_type) {
    case kAppPut:
      HandlePutUpcall(msg);
      return;
    case kAppPutBatch:
      HandlePutBatchUpcall(msg);
      return;
    case kAppGet:
      HandleGetUpcall(msg);
      return;
    case kAppGetMulti:
      HandleGetMultiUpcall(msg);
      return;
    case kAppJoinLookup:
      HandleJoinLookupUpcall(msg);
      return;
    case kAppFingerLookup:
      HandleFingerLookupUpcall(msg);
      return;
    default: {
      // App upcalls (PIER join stages, size probes) reply outside the DHT,
      // so the owner teaches the origin with a standalone hint.
      MaybeSendOwnerHint(msg);
      auto it = upcalls_.find(msg.app_type);
      if (it != upcalls_.end()) it->second(msg);
      return;
    }
  }
}

OwnerHint DhtNode::OwnerHintFor(Key target) const {
  OwnerHint h;
  if (!OwnerCacheEnabled() || !joined_ || !routing_->IsOwner(target)) {
    // Replica peels and best-effort deliveries answer without owning; they
    // must not teach an arc they cannot speak for.
    return h;
  }
  h.owner = routing_->self();
  ChordRouting* c = chord();
  if (c != nullptr && c->predecessor().valid()) {
    // The whole owned arc: one learned reply covers every key this node is
    // responsible for.
    h.arc_start = c->predecessor().id;
    h.arc_end = id();
  } else {
    // Ownership span unknown (Bamboo's numeric-closeness, or a Chord node
    // mid-join): teach the single routed key only.
    h.arc_start = target - 1;
    h.arc_end = target;
  }
  h.valid = true;
  return h;
}

void DhtNode::LearnOwner(const OwnerHint& hint) {
  if (!OwnerCacheEnabled() || !hint.valid || hint.owner.host == host()) {
    return;
  }
  if (route_cache_.Teach(hint)) ++metrics_->route_cache_stale;
}

void DhtNode::MaybeSendOwnerHint(const RouteMsg& msg) {
  // One-hop deliveries have nothing to save (a correctly predicted fast
  // path always lands here with hops == 1, so it is covered too); a
  // MULTI-hop delivery is worth teaching even when it started as a cache
  // fast path — that is exactly the stale-but-alive misprediction the
  // hint heals. Self-sends are local.
  if (msg.hops <= 1) return;
  if (!msg.origin.valid() || msg.origin.host == host()) return;
  OwnerHint h = OwnerHintFor(msg.target);
  if (!h.valid) return;
  SendDirect(msg.origin.host,
             sim::Message::Make<OwnerHint>(kOwnerHint, "dht.hint",
                                           kOwnerHintBytes, h));
}

void DhtNode::DropPeer(sim::HostId host) {
  routing_->RemovePeer(host);
  route_cache_.ForgetHost(host);
}

sim::DestinationLoad DhtNode::NextHopLoad(Key target) const {
  if (OwnerCacheEnabled() && joined_ && !routing_->IsOwner(target)) {
    NodeInfo cached = route_cache_.Lookup(target);
    if (cached.valid() && cached.host != host()) {
      return network_->LoadOf(cached.host);
    }
  }
  return network_->LoadOf(routing_->NextHop(target).host);
}

void DhtNode::Put(const std::string& ns, Key key, std::vector<uint8_t> value,
                  sim::SimTime expiry, PutCallback callback) {
  ++metrics_->puts;
  uint64_t req_id = 0;
  bool want_ack = callback != nullptr;
  if (want_ack) {
    req_id = NextReqId();
    pending_puts_[req_id] = std::move(callback);
  }
  size_t bytes = ns.size() + value.size() + 18;
  auto body = std::make_shared<const PutBody>(
      PutBody{ns, key, std::move(value), expiry, want_ack});
  Route(key, kAppPut, body, bytes, req_id);
}

void DhtNode::PutBatch(const std::string& ns, Key key,
                       std::vector<uint8_t> frames, size_t value_count,
                       sim::SimTime expiry, PutCallback callback) {
  ++metrics_->batch_puts;
  metrics_->batch_put_values += value_count;
  uint64_t req_id = 0;
  bool want_ack = callback != nullptr;
  if (want_ack) {
    req_id = NextReqId();
    pending_puts_[req_id] = std::move(callback);
  }
  // One route header amortized across the whole batch; the frame buffer
  // already carries each value's length prefix.
  size_t bytes = ns.size() + 18 + VarintSize(value_count) + frames.size();
  auto body = std::make_shared<const PutBatchBody>(PutBatchBody{
      ns, key, std::move(frames), value_count, expiry, want_ack});
  Route(key, kAppPutBatch, body, bytes, req_id);
}

void DhtNode::Get(const std::string& ns, Key key, GetCallback callback) {
  assert(callback != nullptr);
  ++metrics_->gets;
  uint64_t req_id = NextReqId();
  size_t bytes = ns.size() + 10;
  auto body = std::make_shared<const GetBody>(GetBody{ns, key});
  PendingGet pending;
  pending.callback = std::move(callback);
  pending.body = body;
  pending.key = key;
  pending.bytes = bytes;
  pending.timeout = network_->executor()->ScheduleAfter(host(), 
      AttemptTimeout(0), [this, req_id]() { OnGetAttemptTimeout(req_id); });
  pending_gets_[req_id] = std::move(pending);
  Route(key, kAppGet, body, bytes, req_id);
}

void DhtNode::OnGetAttemptTimeout(uint64_t req_id) {
  auto it = pending_gets_.find(req_id);
  if (it == pending_gets_.end()) return;
  PendingGet& p = it->second;
  if (p.attempts < kGetRetries) {
    // The attempt died in flight (owner crashed, reply lost): re-send.
    // Ownership re-resolves on the ring under the current membership; the
    // reply path keys on req_id, so a late answer from the first attempt
    // simply wins the race and the duplicate is ignored.
    ++p.attempts;
    ++metrics_->get_retries;
    p.timeout = network_->executor()->ScheduleAfter(host(), 
        AttemptTimeout(p.attempts),
        [this, req_id]() { OnGetAttemptTimeout(req_id); });
    Route(p.key, kAppGet, p.body, p.bytes, req_id);
    return;
  }
  GetCallback cb = std::move(p.callback);
  pending_gets_.erase(it);
  cb(Status::TimedOut("dht get"), {});
}

sim::EventId DhtNode::ArmMultiGetTimeout(uint64_t req_id, uint32_t attempt) {
  return network_->executor()->ScheduleAfter(host(), 
      AttemptTimeout(attempt),
      [this, req_id]() { OnMultiGetAttemptTimeout(req_id); });
}

void DhtNode::OnMultiGetAttemptTimeout(uint64_t req_id) {
  auto it = pending_multi_gets_.find(req_id);
  if (it == pending_multi_gets_.end()) return;
  PendingMultiGet& p = it->second;
  if (p.attempts < kGetRetries && !p.unanswered.empty()) {
    // Re-scatter the unanswered remainder as one chained walk. The owner
    // cache is deliberately not consulted for the retry: if the first
    // attempt died because ownership moved, the ring is the only
    // authoritative path, and the fence already invalidated the arcs.
    ++p.attempts;
    ++metrics_->get_retries;
    p.timeout = ArmMultiGetTimeout(req_id, p.attempts);
    std::vector<Key> rest(p.unanswered.begin(), p.unanswered.end());
    ++metrics_->multi_gets;
    size_t bytes = p.ns.size() + 10 + 8 * rest.size();
    Key first = rest.front();
    auto body = std::make_shared<const MultiGetBody>(
        MultiGetBody{p.ns, std::move(rest)});
    Route(first, kAppGetMulti, body, bytes, req_id);
    return;
  }
  MultiGetCallback cb = std::move(p.callback);
  std::vector<MultiGetItem> items = std::move(p.items);
  pending_multi_gets_.erase(it);
  cb(Status::TimedOut("dht multi get"), std::move(items));
}

void DhtNode::MultiGet(const std::string& ns, std::vector<Key> keys,
                       MultiGetCallback callback) {
  MultiGet(ns, std::move(keys), std::move(callback), MultiGetOptions{});
}

void DhtNode::MultiGet(const std::string& ns, std::vector<Key> keys,
                       MultiGetCallback callback,
                       const MultiGetOptions& options) {
  assert(callback != nullptr);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (keys.empty()) {
    callback(Status::OK(), {});
    return;
  }
  metrics_->multi_get_keys += keys.size();
  uint64_t req_id = NextReqId();
  PendingMultiGet pending;
  pending.callback = std::move(callback);
  pending.ns = ns;
  pending.unanswered.insert(keys.begin(), keys.end());
  pending.timeout = ArmMultiGetTimeout(req_id, 0);
  pending_multi_gets_[req_id] = std::move(pending);

  // With a warm owner location cache, split the key set by remembered
  // owner: each group routes as its own scatter whose first hop is the
  // cached owner direct — K known owners cost K one-hop messages instead
  // of a K-segment ring walk. Keys in uncached arcs (and every key under
  // the classic policy) ride one chained scatter exactly as before; a
  // stale group simply forwards from the mispredicted node, shrinking
  // back to the chained walk. A replica-preferring scatter skips the
  // split entirely: it must travel the ring so the predecessors can
  // divert it away from the owners.
  std::map<sim::HostId, std::vector<Key>> by_owner;
  std::vector<Key> uncached;
  if (OwnerCacheEnabled() && joined_ && !options.prefer_replica) {
    for (Key k : keys) {
      NodeInfo owner = route_cache_.Lookup(k);
      if (owner.valid() && owner.host != host()) {
        by_owner[owner.host].push_back(k);
      } else {
        uncached.push_back(k);
      }
    }
  } else {
    uncached = std::move(keys);
  }
  auto send_scatter = [&](std::vector<Key> group) {
    ++metrics_->multi_gets;
    size_t bytes = ns.size() + 10 + 8 * group.size();
    Key first = group.front();
    auto body = std::make_shared<const MultiGetBody>(
        MultiGetBody{ns, std::move(group), /*arc_valid=*/false,
                     /*arc_start=*/0, options.prefer_replica});
    Route(first, kAppGetMulti, body, bytes, req_id);
  };
  for (auto& [owner_host, group] : by_owner) send_scatter(std::move(group));
  if (!uncached.empty()) send_scatter(std::move(uncached));
}

void DhtNode::SetUpcallHandler(int app_type, UpcallHandler handler) {
  upcalls_[app_type] = std::move(handler);
}

void DhtNode::SetDirectHandler(DirectHandler handler) {
  direct_handler_ = std::move(handler);
}

bool DhtNode::SendDirect(sim::HostId to, sim::Message msg) {
  if (crashed_) return false;
  return network_->Send(host(), to, std::move(msg));
}

void DhtNode::HandlePutUpcall(const RouteMsg& msg) {
  const auto& put = msg.body<PutBody>();
  store_.Put(put.ns, put.key, put.value, put.expiry);
  if (options_.replication > 1) {
    ReplicateEntry(put.ns, put.key, put.value, put.expiry);
  }
  if (put.want_ack) {
    OwnerHint hint = OwnerHintFor(msg.target);
    SendDirect(msg.origin.host,
               sim::Message::Make<AckBody>(
                   kPutAck, "dht.reply",
                   9 + (hint.valid ? kOwnerHintBytes : 0),
                   AckBody{msg.req_id, hint}));
  } else {
    MaybeSendOwnerHint(msg);
  }
}

void DhtNode::StoreBatchFrames(const PutBatchBody& put) {
  BytesReader r(put.frames);
  for (uint64_t i = 0; i < put.value_count; ++i) {
    auto v = r.GetStringView();
    if (!v.ok()) return;
    const auto* data = reinterpret_cast<const uint8_t*>(v.value().data());
    store_.Put(put.ns, put.key,
               std::vector<uint8_t>(data, data + v.value().size()),
               put.expiry);
  }
}

void DhtNode::HandlePutBatchUpcall(const RouteMsg& msg) {
  const auto& put = msg.body<PutBatchBody>();
  StoreBatchFrames(put);
  if (options_.replication > 1 && put.value_count > 0) {
    // One replica message per target carries the whole batch.
    auto targets = routing_->ReplicaTargets(options_.replication - 1);
    size_t bytes = put.ns.size() + 18 + VarintSize(put.value_count) +
                   put.frames.size();
    for (const auto& t : targets) {
      SendDirect(t.host, sim::Message::Make<PutBatchBody>(
                             kReplicaPutBatch, "dht.replica", bytes,
                             PutBatchBody{put.ns, put.key, put.frames,
                                          put.value_count, put.expiry,
                                          false}));
    }
  }
  if (put.want_ack) {
    OwnerHint hint = OwnerHintFor(msg.target);
    SendDirect(msg.origin.host,
               sim::Message::Make<AckBody>(
                   kPutAck, "dht.reply",
                   9 + (hint.valid ? kOwnerHintBytes : 0),
                   AckBody{msg.req_id, hint}));
  } else {
    MaybeSendOwnerHint(msg);
  }
}

void DhtNode::ReplicateEntry(const std::string& ns, Key key,
                             const std::vector<uint8_t>& value,
                             sim::SimTime expiry) {
  auto targets = routing_->ReplicaTargets(options_.replication - 1);
  size_t bytes = ns.size() + value.size() + 18;
  for (const auto& t : targets) {
    SendDirect(t.host, sim::Message::Make<PutBody>(
                           kReplicaPut, "dht.replica", bytes,
                           PutBody{ns, key, value, expiry, false}));
  }
}

void DhtNode::HandleGetUpcall(const RouteMsg& msg) {
  const auto& get = msg.body<GetBody>();
  GetReplyBody reply;
  reply.req_id = msg.req_id;
  reply.hint = OwnerHintFor(msg.target);
  size_t bytes = 16 + (reply.hint.valid ? kOwnerHintBytes : 0);
  for (const StoredValue* v :
       store_.Get(get.ns, get.key, network_->executor()->now())) {
    bytes += v->value.size() + 4;
    reply.values.push_back(v->value);
  }
  SendDirect(msg.origin.host,
             sim::Message::Make<GetReplyBody>(kGetReply, "dht.reply", bytes,
                                              std::move(reply)));
}

void DhtNode::HandleGetMultiUpcall(const RouteMsg& msg) {
  const auto& get = msg.body<MultiGetBody>();
  sim::SimTime now = network_->executor()->now();
  // Answer every key we own, plus — on a replica handoff — every arc key
  // (arc_start, self] this node holds replica data for. An arc key with
  // an EMPTY local store is NOT answered here: the gap may be replication
  // lag (the owner stores first, replica copies follow one hop later), so
  // it continues to its owner for the authoritative empty answer — the
  // replica-aware scatter never returns less than the owner walk. On a
  // normally routed message the target key is answered unconditionally:
  // routing decided we own it, and peeling it guarantees the forwarded
  // remainder shrinks even when our own view is stale.
  MultiGetReplyBody reply;
  reply.req_id = msg.req_id;
  // A normally routed visit answers as the target key's owner; the reply
  // teaches the requester this owner's arc (handoff receivers answer from
  // replica state and teach nothing).
  if (!get.arc_valid) reply.hint = OwnerHintFor(msg.target);
  std::vector<Key> rest;
  size_t reply_bytes = 12 + (reply.hint.valid ? kOwnerHintBytes : 0);
  for (Key k : get.keys) {
    bool is_owner = routing_->IsOwner(k);
    bool answer = is_owner || (k == msg.target && !get.arc_valid);
    if (!answer && get.arc_valid && InOpenClosed(get.arc_start, id(), k)) {
      answer = store_.Has(get.ns, k, now);
    }
    if (answer) {
      if (!is_owner) ++metrics_->replica_peels;
      BatchImage image = store_.GetBatch(get.ns, k, now);
      reply_bytes += 8 + image->size();
      reply.items.push_back(MultiGetItem{k, std::move(image)});
    } else {
      rest.push_back(k);
    }
  }
  // A handoff receiver holding none of the arc keys has nothing to say;
  // don't spend a reply message on an empty item list.
  if (!reply.items.empty() || rest.empty()) {
    SendDirect(msg.origin.host,
               sim::Message::Make<MultiGetReplyBody>(kMultiGetReply,
                                                     "dht.reply", reply_bytes,
                                                     std::move(reply)));
  }
  if (rest.empty()) return;
  if (ForwardMultiGetViaReplica(msg, get.ns, rest)) return;
  // Forward the unanswered keys as one message to the next key's owner,
  // preserving the original requester as the reply target (and the
  // replica-preferring steering, so every leg of a hedged scatter keeps
  // avoiding its primary owner).
  ++metrics_->multi_gets;
  size_t bytes = get.ns.size() + 10 + 8 * rest.size();
  Key next = rest.front();
  auto body = std::make_shared<const MultiGetBody>(
      MultiGetBody{get.ns, std::move(rest), /*arc_valid=*/false,
                   /*arc_start=*/0, get.prefer_replica});
  RouteAs(msg.origin, next, kAppGetMulti, body, bytes, msg.req_id);
}

bool DhtNode::ForwardMultiGetViaReplica(const RouteMsg& msg,
                                        const std::string& ns,
                                        const std::vector<Key>& rest) {
  if (options_.replication <= 1) return false;
  ChordRouting* c = chord();
  if (c == nullptr) return false;
  // Every key in (self, succ_j] for j <= replication is owned by one of
  // succ_1..succ_j, and succ_j is within that owner's replica set (the
  // owner's replication-1 successors) — so succ_j answers the whole arc
  // authoritatively. Hand the remainder one hop to the farthest such
  // successor whose arc still covers the next key: one message peels up to
  // `replication` owners' key ranges instead of one.
  // Copied: a failed send below removes the peer from the live list.
  std::vector<NodeInfo> succs = c->successor_list();
  size_t max_j = std::min(succs.size(), options_.replication);
  Key next_key = rest.front();
  for (size_t j = max_j; j >= 1; --j) {
    const NodeInfo& target = succs[j - 1];
    if (!target.valid() || target.host == host()) continue;
    if (!InOpenClosed(id(), target.id, next_key)) {
      // A shorter arc cannot contain next_key either.
      return false;
    }
    RouteMsg handoff;
    handoff.target = next_key;
    handoff.origin = msg.origin;
    handoff.hops = msg.hops + 1;
    handoff.app_type = kAppGetMulti;
    handoff.req_id = msg.req_id;
    handoff.final_hop = true;  // the arc makes delivery authoritative
    handoff.app_bytes = ns.size() + 19 + 8 * rest.size();
    handoff.app_body = std::make_shared<const MultiGetBody>(
        MultiGetBody{ns, rest, /*arc_valid=*/true, /*arc_start=*/id(),
                     msg.body<MultiGetBody>().prefer_replica});
    size_t bytes = RouteHeaderBytes() + handoff.app_bytes;
    if (SendDirect(target.host,
                   sim::Message::Make<RouteMsg>(kRouteStep, "dht.route",
                                                bytes, std::move(handoff)))) {
      // Counted only on the send that actually left: a refused attempt
      // must not inflate the per-visit scatter cost the benches gate on.
      ++metrics_->multi_gets;
      ++metrics_->routes_initiated;
      ++metrics_->replica_skips;
      return true;
    }
    // Connection refused: the successor is down. Drop it and try the next
    // shorter arc with the repaired list.
    DropPeer(target.host);
  }
  return false;
}

bool DhtNode::DivertMultiGetToReplica(const RouteMsg& msg,
                                      const MultiGetBody& get) {
  if (options_.replication <= 1) return false;
  ChordRouting* c = chord();
  if (c == nullptr) return false;
  // This node is the target key's predecessor: succs[0] is the key's owner
  // (the hop the hedge wants to avoid) and succs[1..replication-1] hold the
  // owner's arc in their replica sets. Hand the request to the nearest live
  // backup as an authoritative arc handoff — the same (self, backup] arc
  // contract ForwardMultiGetViaReplica uses, so the backup answers every
  // key it holds (the target's included) and forwards the rest.
  std::vector<NodeInfo> succs = c->successor_list();
  size_t max_j = std::min(succs.size(), options_.replication);
  for (size_t j = 2; j <= max_j; ++j) {
    const NodeInfo& target = succs[j - 1];
    if (!target.valid() || target.host == host()) continue;
    if (!InOpenClosed(id(), target.id, msg.target)) continue;
    RouteMsg handoff;
    handoff.target = msg.target;
    handoff.origin = msg.origin;
    handoff.hops = msg.hops + 1;
    handoff.app_type = kAppGetMulti;
    handoff.req_id = msg.req_id;
    handoff.final_hop = true;  // the arc makes delivery authoritative
    handoff.app_bytes = get.ns.size() + 19 + 8 * get.keys.size();
    handoff.app_body = std::make_shared<const MultiGetBody>(
        MultiGetBody{get.ns, get.keys, /*arc_valid=*/true,
                     /*arc_start=*/id(), get.prefer_replica});
    size_t bytes = RouteHeaderBytes() + handoff.app_bytes;
    if (SendDirect(target.host,
                   sim::Message::Make<RouteMsg>(kRouteStep, "dht.route",
                                                bytes, std::move(handoff)))) {
      ++metrics_->hedge_redirects;
      return true;
    }
    // The backup is down; try the next one out.
    DropPeer(target.host);
  }
  return false;
}

void DhtNode::HandleJoinLookupUpcall(const RouteMsg& msg) {
  // The joiner's key falls in our range; we are its future successor.
  ChordRouting* c = chord();
  if (c == nullptr) return;
  JoinReplyBody reply{info(), c->successor_list()};
  SendDirect(msg.origin.host,
             sim::Message::Make<JoinReplyBody>(
                 kJoinReply, "dht.maint",
                 kNodeInfoBytes * (1 + reply.successor_list.size()),
                 std::move(reply)));
}

void DhtNode::HandleFingerLookupUpcall(const RouteMsg& msg) {
  const auto& body = msg.body<FingerLookupBody>();
  SendDirect(msg.origin.host,
             sim::Message::Make<FingerReplyBody>(
                 kFingerReply, "dht.maint", 8 + kNodeInfoBytes,
                 FingerReplyBody{body.index, info()}));
}

void DhtNode::StartMaintenanceTimers() {
  // Stagger nodes deterministically so maintenance doesn't synchronize.
  sim::SimTime offset = (host() % 16) * (kStabilizeInterval / 16);
  stabilize_timer_ = network_->executor()->ScheduleAfter(host(), 
      kStabilizeInterval + offset, [this]() { DoStabilize(); });
  fix_finger_timer_ = network_->executor()->ScheduleAfter(host(), 
      kFixFingerInterval + offset, [this]() { DoFixFinger(); });
  detector_timer_ = network_->executor()->ScheduleAfter(host(), 
      kPingInterval + offset, [this]() { DoFailureDetector(); });
  if (options_.replication > 1) {
    resync_timer_ = network_->executor()->ScheduleAfter(host(),
        kResyncInterval + offset, [this]() { DoResync(); });
  }
  reconcile_timer_ = network_->executor()->ScheduleAfter(host(),
      kReconcileInterval + offset, [this]() { DoReconcile(); });
}

void DhtNode::DoStabilize() {
  if (crashed_ || !joined_) return;
  stabilize_timer_ = network_->executor()->ScheduleAfter(host(), 
      kStabilizeInterval, [this]() { DoStabilize(); });
  ChordRouting* c = chord();
  if (c == nullptr) return;
  // Probe the predecessor's liveness; a refused connection clears the
  // pointer so a future Notify from the true predecessor can be adopted.
  NodeInfo pred = c->predecessor();
  if (pred.valid() && pred.host != host()) {
    if (!SendDirect(pred.host,
                    sim::Message::Make<uint8_t>(kPredecessorPing, "dht.maint",
                                                1, uint8_t{0}))) {
      c->ClearPredecessor();
    }
  }
  NodeInfo succ = c->successor();
  while (succ.valid() && succ.host != host()) {
    uint64_t seq = ++stabilize_seq_;
    if (SendDirect(succ.host, sim::Message::Make<GetPredecessorBody>(
                                  kGetPredecessor, "dht.maint", 9,
                                  GetPredecessorBody{seq}))) {
      stabilize_timeout_ = network_->executor()->ScheduleAfter(host(), 
          kRpcTimeout, [this, seq, suspect = succ.host]() {
            OnStabilizeTimeout(seq, suspect);
          });
      return;
    }
    // Connection refused: successor is down; fall back along the list.
    DropPeer(succ.host);
    succ = c->successor();
  }
}

void DhtNode::OnStabilizeTimeout(uint64_t seq, sim::HostId suspect) {
  if (crashed_ || !joined_) return;
  if (seq <= last_stabilize_reply_) return;  // that round was answered
  // The successor did not answer: declare it failed and fall back to the
  // next entry of the successor list.
  DropPeer(suspect);
}

void DhtNode::DoFixFinger() {
  if (crashed_ || !joined_) return;
  fix_finger_timer_ = network_->executor()->ScheduleAfter(host(), 
      kFixFingerInterval, [this]() { DoFixFinger(); });
  ChordRouting* c = chord();
  if (c == nullptr) return;
  size_t i = next_finger_;
  next_finger_ = (next_finger_ + 1) % ChordRouting::kNumFingers;
  auto body = std::make_shared<const FingerLookupBody>(FingerLookupBody{i});
  Route(c->FingerStart(i), kAppFingerLookup, body, 9);
}

void DhtNode::DoFailureDetector() {
  if (crashed_ || !joined_) return;
  detector_timer_ = network_->executor()->ScheduleAfter(host(), 
      kPingInterval, [this]() { DoFailureDetector(); });
  ChordRouting* c = chord();
  if (c == nullptr) return;
  // The probe set is the neighborhood routing correctness depends on —
  // predecessor and the leading successors — plus one rotating finger so
  // the whole table is eventually swept. Eviction latency is therefore
  // bounded by (kPingMissThreshold + 1) ping intervals for ring neighbors,
  // independent of what stabilize happens to probe.
  std::vector<sim::HostId> targets;
  auto add = [&](const NodeInfo& n) {
    if (!n.valid() || n.host == host()) return;
    for (sim::HostId t : targets) {
      if (t == n.host) return;
    }
    targets.push_back(n.host);
  };
  add(c->predecessor());
  const auto& succs = c->successor_list();
  for (size_t i = 0; i < succs.size() && i < 3; ++i) add(succs[i]);
  for (size_t probe = 0; probe < ChordRouting::kNumFingers; ++probe) {
    size_t i = detector_finger_;
    detector_finger_ = (detector_finger_ + 1) % ChordRouting::kNumFingers;
    NodeInfo f = c->finger(i);
    if (f.valid() && f.host != host()) {
      add(f);
      break;
    }
  }
  for (sim::HostId t : targets) {
    uint32_t& misses = ping_outstanding_[t];
    if (misses >= kPingMissThreshold) {
      // Suspicion confirmed: unanswered for `misses` consecutive rounds.
      ping_outstanding_.erase(t);
      ++metrics_->detector_evictions;
      DropPeer(t);
      continue;
    }
    ++metrics_->detector_pings;
    if (SendDirect(t, sim::Message::Make<uint8_t>(kLivenessPing, "dht.maint",
                                                  1, uint8_t{0}))) {
      ++misses;  // outstanding until the ack clears it
    } else {
      // Connection refused: no need to accumulate suspicion.
      ping_outstanding_.erase(t);
      ++metrics_->detector_evictions;
      DropPeer(t);
    }
  }
}

void DhtNode::DoResync() {
  if (crashed_ || !joined_) return;
  resync_timer_ = network_->executor()->ScheduleAfter(host(), 
      kResyncInterval, [this]() { DoResync(); });
  if (!resync_dirty_ || options_.replication <= 1) return;
  ChordRouting* c = chord();
  if (c == nullptr) {
    resync_dirty_ = false;
    return;
  }
  NodeInfo pred = c->predecessor();
  // The owned arc is (pred, self]; without a predecessor the arc is
  // undefined — stay dirty and retry once stabilize re-establishes it.
  if (!pred.valid()) return;
  auto targets = routing_->ReplicaTargets(options_.replication - 1);
  resync_dirty_ = false;
  if (targets.empty()) return;  // singleton ring: nothing to repair
  ++metrics_->resync_rounds;
  for (const auto& t : targets) {
    SendArcDigests(t.host, pred.id, id());
  }
}

void DhtNode::SendArcDigests(sim::HostId to, Key arc_start, Key arc_end) {
  sim::SimTime now = network_->executor()->now();
  for (const auto& ns : store_.Namespaces()) {
    auto digests = store_.DigestRange(ns, arc_start, arc_end, now);
    if (digests.empty()) continue;
    ResyncDigestBody body;
    body.ns = ns;
    body.digests.assign(digests.begin(), digests.end());
    body.arc_valid = true;
    body.arc_start = arc_start;
    body.arc_end = arc_end;
    size_t bytes = ns.size() + 24 + 20 * body.digests.size();
    if (!SendDirect(to, sim::Message::Make<ResyncDigestBody>(
                            kResyncDigest, "dht.resync", bytes,
                            std::move(body)))) {
      DropPeer(to);
      return;
    }
  }
}

void DhtNode::HandleResyncDigest(sim::HostId from, const sim::Message& msg) {
  const auto& d = msg.as<ResyncDigestBody>();
  sim::SimTime now = network_->executor()->now();
  // Pull every key whose local digest diverges from the sender's — missing
  // keys and stale value sets alike (Put dedupes, so over-pulling is
  // bytes, never corruption).
  ResyncPullBody pull;
  pull.ns = d.ns;
  for (const auto& [key, digest] : d.digests) {
    if (store_.DigestKey(d.ns, key, now) != digest) pull.keys.push_back(key);
  }
  if (!pull.keys.empty()) {
    SendDirect(from, sim::Message::Make<ResyncPullBody>(
                         kResyncPull, "dht.resync",
                         d.ns.size() + 8 + 8 * pull.keys.size(),
                         std::move(pull)));
  }
  // Reverse push: ship back our own arc entries the sender's digest set
  // lacks or disagrees with. Entries written on THIS side of a since-healed
  // split exist here but carry no digest in `d` to mismatch — without this
  // push they would never reach the (re-established) owner. The receiving
  // side stores the union (Put dedupes) and its next re-sync round
  // propagates it onward, so both sides of a split-brain converge to the
  // same value sets.
  if (!d.arc_valid) return;
  std::map<Key, LocalStore::KeyDigest> theirs(d.digests.begin(),
                                              d.digests.end());
  KeyTransferBody back;
  size_t bytes = 16;
  for (const auto& [key, mine] :
       store_.DigestRange(d.ns, d.arc_start, d.arc_end, now)) {
    auto it = theirs.find(key);
    if (it != theirs.end() && it->second == mine) continue;
    for (const StoredValue* v : store_.Get(d.ns, key, now)) {
      bytes += d.ns.size() + v->value.size() + 17;
      ++metrics_->resync_entries;
      metrics_->resync_bytes += v->value.size();
      back.entries.push_back({d.ns, *v});
    }
  }
  if (back.entries.empty()) return;
  SendDirect(from, sim::Message::Make<KeyTransferBody>(
                       kResyncEntries, "dht.resync", bytes,
                       std::move(back)));
}

void DhtNode::HandleResyncPull(sim::HostId from, const sim::Message& msg) {
  const auto& pull = msg.as<ResyncPullBody>();
  sim::SimTime now = network_->executor()->now();
  KeyTransferBody transfer;
  size_t bytes = 16;
  for (Key k : pull.keys) {
    for (const StoredValue* v : store_.Get(pull.ns, k, now)) {
      bytes += pull.ns.size() + v->value.size() + 17;
      ++metrics_->resync_entries;
      metrics_->resync_bytes += v->value.size();
      transfer.entries.push_back({pull.ns, *v});
    }
  }
  if (transfer.entries.empty()) return;
  SendDirect(from, sim::Message::Make<KeyTransferBody>(
                       kResyncEntries, "dht.resync", bytes,
                       std::move(transfer)));
}

void DhtNode::DoReconcile() {
  if (crashed_ || !joined_) return;
  reconcile_timer_ = network_->executor()->ScheduleAfter(host(),
      kReconcileInterval, [this]() { DoReconcile(); });
  const auto& remembered = routing_->RememberedPeers();
  if (remembered.empty()) return;  // nobody evicted: the round is free
  reconcile_cursor_ %= remembered.size();
  NodeInfo peer = remembered[reconcile_cursor_];
  ++reconcile_cursor_;
  ++metrics_->merge_probes;
  MergeBody probe{info(), chord() ? chord()->successor_list()
                                  : std::vector<NodeInfo>{}};
  size_t bytes = kNodeInfoBytes * (1 + probe.successors.size());
  if (!SendDirect(peer.host,
                  sim::Message::Make<MergeBody>(kMergeProbe, "dht.maint",
                                                bytes, std::move(probe)))) {
    // Connection refused: the peer really is down (a partitioned peer's
    // messages are silently dropped, not refused). Confirmed dead — stop
    // probing it. If it ever restarts, its own rejoin re-announces it.
    routing_->ForgetRememberedPeer(peer.host);
  }
}

void DhtNode::HandleMergeProbe(sim::HostId from, const sim::Message& msg) {
  const auto& probe = msg.as<MergeBody>();
  // Contact from a host absent from our tables is cross-ring contact — the
  // prober healed around us (or we around it) during a split.
  bool known = false;
  for (const NodeInfo& p : routing_->KnownPeers()) {
    if (p.host == from) {
      known = true;
      break;
    }
  }
  if (!known) ++metrics_->merge_contacts;
  IntegrateForeignView(probe.sender, probe.successors);
  MergeBody reply{info(), chord() ? chord()->successor_list()
                                  : std::vector<NodeInfo>{}};
  size_t bytes = kNodeInfoBytes * (1 + reply.successors.size());
  SendDirect(from, sim::Message::Make<MergeBody>(kMergeReply, "dht.maint",
                                                 bytes, std::move(reply)));
}

void DhtNode::HandleMergeReply(sim::HostId, const sim::Message& msg) {
  const auto& reply = msg.as<MergeBody>();
  ++metrics_->merge_rounds;
  IntegrateForeignView(reply.sender, reply.successors);
}

void DhtNode::IntegrateForeignView(const NodeInfo& sender,
                                   const std::vector<NodeInfo>& successors) {
  if (!sender.valid() || sender.host == host()) return;
  // A remembered peer answering is a detected partition heal: it was never
  // dead, just unreachable. Count before the integration forgets it.
  for (const NodeInfo& r : routing_->RememberedPeers()) {
    if (r.host == sender.host) {
      ++metrics_->partition_heals;
      break;
    }
  }
  routing_->ForgetRememberedPeer(sender.host);
  ChordRouting* c = chord();
  if (c == nullptr) return;  // Bamboo deployments here are static-only
  // Adopt-better-successor: the sender and its successors enter our list
  // wherever they tighten it; stabilize/notify then walks the usual loopy
  // convergence until the two rings are knit into one. Ownership flips
  // along the way bump epochs and arm re-sync through the membership
  // listener — the same machinery as any other membership change.
  c->OfferSuccessor(sender);
  for (const NodeInfo& s : successors) {
    if (s.valid() && s.host != host()) c->OfferSuccessor(s);
  }
  ConsiderPredecessor(sender);
}

void DhtNode::ConsiderPredecessor(const NodeInfo& cand) {
  ChordRouting* c = chord();
  if (c == nullptr || !cand.valid() || cand.host == host()) return;
  NodeInfo old_pred = c->predecessor();
  bool adopt = !old_pred.valid() || InOpenOpen(old_pred.id, id(), cand.id);
  if (!adopt) return;
  c->SetPredecessor(cand);
  // Hand over the keys that now belong to the new predecessor: everything
  // outside (cand, self]. With replication > 1 the handover is DIGEST-
  // driven: we keep holding the range as replica state (we are the new
  // predecessor's first successor — extracting would strip the replica set
  // below the floor) and send per-key digests instead of the data; the
  // new owner pulls only what it lacks and pushes back what we lack. A
  // durable-restarted predecessor whose disk survived therefore re-ships
  // almost nothing, and divergent split-brain writes flow both ways.
  // Without replication the range is MOVED outright, as before.
  Key from_key = old_pred.valid() ? old_pred.id : id();
  if (ClockwiseDistance(from_key, cand.id) == 0) return;
  if (options_.replication > 1) {
    SendArcDigests(cand.host, from_key, cand.id);
    return;
  }
  KeyTransferBody transfer;
  size_t bytes = 16;
  for (const auto& ns : store_.Namespaces()) {
    for (auto& v : store_.ExtractRange(ns, from_key, cand.id)) {
      bytes += ns.size() + v.value.size() + 17;
      transfer.entries.push_back({ns, std::move(v)});
    }
  }
  if (!transfer.entries.empty()) {
    SendDirect(cand.host, sim::Message::Make<KeyTransferBody>(
                              kKeyTransfer, "dht.transfer", bytes,
                              std::move(transfer)));
  }
}

void DhtNode::OnMembershipChange(bool ownership_changed,
                                 bool replica_set_changed) {
  if (ownership_changed) BumpEpoch();
  if (options_.replication > 1 &&
      (ownership_changed || replica_set_changed)) {
    resync_dirty_ = true;
  }
}

void DhtNode::BumpEpoch() {
  ++membership_epoch_;
  ++metrics_->epoch_bumps;
  // Fence AND purge: arcs taught under the old epoch (possibly across a
  // since-healed partition) are counted as stale and dropped so they can't
  // capacity-starve fresh arcs; the fast path falls back to ring routing
  // until replies re-teach under the new epoch.
  metrics_->route_cache_stale += route_cache_.FenceEpoch();
  for (const auto& listener : epoch_listeners_) listener();
}

void DhtNode::HandleMessage(sim::HostId from, const sim::Message& msg) {
  if (crashed_) return;
  switch (msg.type) {
    case kRouteStep: {
      ForwardOrDeliver(msg.as<RouteMsg>());
      return;
    }
    case kOwnerHint: {
      LearnOwner(msg.as<OwnerHint>());
      return;
    }
    case kGetReply: {
      const auto& reply = msg.as<GetReplyBody>();
      LearnOwner(reply.hint);
      auto it = pending_gets_.find(reply.req_id);
      if (it == pending_gets_.end()) return;
      network_->executor()->Cancel(it->second.timeout);
      GetCallback cb = std::move(it->second.callback);
      pending_gets_.erase(it);
      cb(Status::OK(), reply.values);
      return;
    }
    case kMultiGetReply: {
      const auto& reply = msg.as<MultiGetReplyBody>();
      LearnOwner(reply.hint);
      auto it = pending_multi_gets_.find(reply.req_id);
      if (it == pending_multi_gets_.end()) return;
      PendingMultiGet& pending = it->second;
      bool progressed = false;
      for (const auto& item : reply.items) {
        // A retry race can answer the same key twice; only the first
        // answer counts, duplicates are dropped.
        if (pending.unanswered.erase(item.key) == 0) continue;
        pending.items.push_back(item);
        progressed = true;
      }
      if (!pending.unanswered.empty()) {
        if (progressed) {
          // The owner chain answers sequentially, so end-to-end latency
          // scales with the owner count; treat the timeout as a progress
          // watchdog and restart the attempt schedule on every partial
          // reply.
          network_->executor()->Cancel(pending.timeout);
          pending.attempts = 0;
          pending.timeout = ArmMultiGetTimeout(reply.req_id, 0);
        }
        return;
      }
      network_->executor()->Cancel(pending.timeout);
      MultiGetCallback cb = std::move(pending.callback);
      std::vector<MultiGetItem> items = std::move(pending.items);
      pending_multi_gets_.erase(it);
      cb(Status::OK(), std::move(items));
      return;
    }
    case kReplicaPutBatch: {
      StoreBatchFrames(msg.as<PutBatchBody>());
      return;
    }
    case kPutAck: {
      const auto& ack = msg.as<AckBody>();
      LearnOwner(ack.hint);
      auto it = pending_puts_.find(ack.req_id);
      if (it == pending_puts_.end()) return;
      PutCallback cb = std::move(it->second);
      pending_puts_.erase(it);
      cb(Status::OK());
      return;
    }
    case kJoinReply: {
      ChordRouting* c = chord();
      if (c == nullptr || joined_) return;
      const auto& reply = msg.as<JoinReplyBody>();
      std::vector<NodeInfo> list;
      list.push_back(reply.owner);
      for (const auto& s : reply.successor_list) list.push_back(s);
      c->SetSuccessorList(std::move(list));
      joined_ = true;
      SendDirect(reply.owner.host,
                 sim::Message::Make<NotifyBody>(kNotify, "dht.maint",
                                                kNodeInfoBytes,
                                                NotifyBody{info()}));
      StartMaintenanceTimers();
      return;
    }
    case kGetPredecessor: {
      ChordRouting* c = chord();
      if (c == nullptr) return;
      const auto& req = msg.as<GetPredecessorBody>();
      PredecessorReplyBody reply{req.seq, c->predecessor(),
                                 c->successor_list()};
      SendDirect(from, sim::Message::Make<PredecessorReplyBody>(
                           kPredecessorReply, "dht.maint",
                           9 + kNodeInfoBytes * (1 + reply.successor_list.size()),
                           std::move(reply)));
      return;
    }
    case kPredecessorReply: {
      ChordRouting* c = chord();
      if (c == nullptr) return;
      const auto& reply = msg.as<PredecessorReplyBody>();
      if (reply.seq > last_stabilize_reply_) {
        last_stabilize_reply_ = reply.seq;
      }
      if (reply.seq == stabilize_seq_) {
        network_->executor()->Cancel(stabilize_timeout_);
        stabilize_timeout_ = sim::kInvalidEventId;
      }
      ++stabilize_rounds_;
      if (reply.predecessor.valid()) {
        c->OfferSuccessor(reply.predecessor);
      }
      NodeInfo succ = c->successor();
      std::vector<NodeInfo> list;
      list.push_back(succ);
      for (const auto& s : reply.successor_list) list.push_back(s);
      c->SetSuccessorList(std::move(list));
      succ = c->successor();
      if (succ.valid() && succ.host != host()) {
        SendDirect(succ.host,
                   sim::Message::Make<NotifyBody>(kNotify, "dht.maint",
                                                  kNodeInfoBytes,
                                                  NotifyBody{info()}));
      }
      return;
    }
    case kNotify: {
      ChordRouting* c = chord();
      if (c == nullptr) return;
      const auto& notify = msg.as<NotifyBody>();
      NodeInfo cand = notify.candidate;
      if (!cand.valid() || cand.host == host()) return;
      c->OfferSuccessor(cand);  // first join on a singleton ring
      ConsiderPredecessor(cand);
      return;
    }
    case kFingerReply: {
      ChordRouting* c = chord();
      if (c == nullptr) return;
      const auto& reply = msg.as<FingerReplyBody>();
      if (reply.index < ChordRouting::kNumFingers) {
        c->SetFinger(reply.index, reply.owner);
      }
      return;
    }
    case kKeyTransfer:
    case kResyncEntries: {
      const auto& transfer = msg.as<KeyTransferBody>();
      bool created = false;
      for (const auto& e : transfer.entries) {
        created |= store_.Put(e.ns, e.value.key, e.value.value,
                              e.value.expiry);
      }
      // Fresh entries (split-brain divergence flowing back in) must ripple
      // onward to the rest of the replica set, not stop here — arm the next
      // resync round so the union propagates node-by-node until digests
      // match everywhere and the rounds quiesce.
      if (created && options_.replication > 1) resync_dirty_ = true;
      return;
    }
    case kMergeProbe: {
      HandleMergeProbe(from, msg);
      return;
    }
    case kMergeReply: {
      HandleMergeReply(from, msg);
      return;
    }
    case kResyncDigest: {
      HandleResyncDigest(from, msg);
      return;
    }
    case kResyncPull: {
      HandleResyncPull(from, msg);
      return;
    }
    case kLivenessPing: {
      SendDirect(from, sim::Message::Make<uint8_t>(kLivenessAck, "dht.maint",
                                                   1, uint8_t{0}));
      return;
    }
    case kLivenessAck: {
      ping_outstanding_.erase(from);
      return;
    }
    case kReplicaPut: {
      const auto& put = msg.as<PutBody>();
      store_.Put(put.ns, put.key, put.value, put.expiry);
      return;
    }
    case kLeave: {
      ChordRouting* c = chord();
      if (c == nullptr) return;
      const auto& leave = msg.as<LeaveBody>();
      DropPeer(leave.departing.host);
      if (leave.to_predecessor) {
        std::vector<NodeInfo> list = leave.successor_list;
        c->SetSuccessorList(std::move(list));
      } else if (leave.predecessor.valid() &&
                 leave.predecessor.host != host()) {
        c->SetPredecessor(leave.predecessor);
      }
      return;
    }
    case kPredecessorPing:
      // Liveness is proven by the connection itself; nothing to do.
      return;
    case kDirectApp: {
      if (direct_handler_) direct_handler_(from, msg);
      return;
    }
    default:
      // Unknown control message: drop (forward compatibility).
      return;
  }
}

void ExportTransportCounters(const DhtMetrics& m, CounterSet* out) {
  out->Set("dht.multi_gets", m.multi_gets);
  out->Set("dht.multi_get_keys", m.multi_get_keys);
  out->Set("dht.replica_peels", m.replica_peels);
  out->Set("dht.replica_skips", m.replica_skips);
  out->Set("dht.hedge_redirects", m.hedge_redirects);
  out->Set("dht.route_cache_hits", m.route_cache_hits);
  out->Set("dht.route_cache_misses", m.route_cache_misses);
  out->Set("dht.route_cache_stale", m.route_cache_stale);
  out->Set("dht.hops_saved", m.hops_saved);
  out->Set("dht.congestion_detours", m.congestion_detours);
  out->Set("dht.detector_pings", m.detector_pings);
  out->Set("dht.detector_evictions", m.detector_evictions);
  out->Set("dht.epoch_bumps", m.epoch_bumps);
  out->Set("dht.resync_rounds", m.resync_rounds);
  out->Set("dht.resync_entries", m.resync_entries);
  out->Set("dht.resync_bytes", m.resync_bytes);
  out->Set("dht.get_retries", m.get_retries);
  out->Set("dht.merge_probes", m.merge_probes);
  out->Set("dht.merge_contacts", m.merge_contacts);
  out->Set("dht.merge_rounds", m.merge_rounds);
  out->Set("dht.partition_heals", m.partition_heals);
}

}  // namespace pierstack::dht
