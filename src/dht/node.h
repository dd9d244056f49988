// DhtNode: one DHT participant — key-based routing with upcalls, put, get
// and owner-coalesced multi-get with replication, and ring maintenance
// (join / stabilize / failure repair, Chord-style).
//
// This is the messaging + storage substrate PIER runs on (paper Section 2:
// "With the exception of query answers, all messages are sent via the DHT
// routing layer. PIER also stores all temporary tuples ... in the DHT.").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "dht/local_store.h"
#include "dht/route_cache.h"
#include "dht/routing.h"
#include "sim/network.h"

namespace pierstack::dht {

class ChordRouting;

/// A message being routed to the owner of `target`. Applications attach an
/// opaque payload and receive the whole RouteMsg in their upcall.
struct RouteMsg {
  Key target = 0;
  NodeInfo origin;   ///< The node that initiated the route.
  uint32_t hops = 0; ///< Overlay hops taken so far.
  int app_type = 0;  ///< Application discriminator (>= kAppUserBase for apps).
  uint64_t req_id = 0;
  size_t app_bytes = 0;  ///< Payload wire size (header added separately).
  /// Set on the last hop by the key's Chord predecessor ("the key lies in
  /// (me, successor]"), telling the receiver to deliver unconditionally.
  /// This keeps delivery correct while the receiver's own predecessor
  /// pointer is stale (mid-join or after a crash).
  bool final_hop = false;
  /// Set when the origin short-circuited the first hop through its owner
  /// location cache. NOT a delivery marker: a stale receiver forwards the
  /// message along the ring like any other. A delivery with via_cache and
  /// hops > 1 is a detected misprediction (counted stale; the owner's
  /// hint re-teaches the origin).
  bool via_cache = false;
  /// Set with via_cache when the origin's classic ring first hop was NOT
  /// the cached owner: if the prediction holds (delivered at hop 1), the
  /// fast path provably skipped at least one ring hop.
  bool cache_skipped_hop = false;
  std::shared_ptr<const void> app_body;

  template <typename T>
  const T& body() const {
    return *static_cast<const T*>(app_body.get());
  }
};

/// Built-in routed application types; user apps start at kAppUserBase.
enum RoutedApp : int {
  kAppPut = 1,
  kAppGet = 2,
  kAppJoinLookup = 3,
  kAppFingerLookup = 4,
  kAppPutBatch = 6,
  kAppGetMulti = 8,
  kAppUserBase = 100,
};

/// Aggregate counters shared by all nodes of one deployment.
struct DhtMetrics {
  RelaxedCounter routes_initiated;
  RelaxedCounter routes_delivered;
  RelaxedCounter routes_dropped;  ///< Hop-limit exceeded.
  RelaxedCounter total_hops;      ///< Over delivered routes.
  RelaxedMax max_hops;
  RelaxedCounter puts;
  RelaxedCounter gets;
  RelaxedCounter batch_puts;        ///< PutBatch messages (any value count).
  RelaxedCounter batch_put_values;  ///< Values carried by PutBatch messages.
  /// Routed MultiGet messages (initial sends + owner-to-owner forwards):
  /// one per distinct owner visited, the coalesced answer-fetch cost.
  RelaxedCounter multi_gets;
  RelaxedCounter multi_get_keys;    ///< Keys requested across MultiGet calls.
  /// MultiGet keys answered by a replica holder instead of the key's owner
  /// (replica-aware scatter shortcut; 0 when replication == 1).
  RelaxedCounter replica_peels;
  /// One-hop replica handoffs taken by the MultiGet scatter in place of an
  /// owner-by-owner walk.
  RelaxedCounter replica_skips;
  /// Replica-preferring MultiGets diverted from the primary owner to its
  /// successor at the final hop (the hedged-fetch backup path).
  RelaxedCounter hedge_redirects;
  /// Routes whose origin short-circuited the first hop to a cached owner
  /// (the one-hop fast path; ring routing remains the fallback).
  RelaxedCounter route_cache_hits;
  /// Routes that had to start on the ring because no cached arc covered
  /// the target.
  RelaxedCounter route_cache_misses;
  /// Cache entries proven wrong: refused fast-path sends, mispredicted
  /// fast paths delivered past hop 1 (stale-but-alive old owners), hints
  /// that replaced a different remembered owner for the same arc, and
  /// old-epoch arcs purged when a membership epoch bump fences the cache
  /// (e.g. OwnerHints learned across a since-healed partition).
  RelaxedCounter route_cache_stale;
  /// Ring hops provably avoided by cache hits. Conservative lower bound:
  /// counts 1 per CORRECTLY predicted fast path (delivered at hop 1)
  /// whose classic first hop was not already the owner (the true saving
  /// per hit is the full ring path minus one).
  RelaxedCounter hops_saved;
  /// Next-hop choices where congestion bias overrode the classic
  /// distance-only pick (the hop routed AROUND a backed-up peer).
  RelaxedCounter congestion_detours;
  /// Liveness pings sent by the proactive failure detector.
  RelaxedCounter detector_pings;
  /// Peers evicted by the detector (ping-miss threshold crossed) — churn
  /// discovered by probing, ahead of any refused application send.
  RelaxedCounter detector_evictions;
  /// Membership epoch bumps across all nodes: ownership-changing events
  /// (join adoption, predecessor/successor movement, crash repair) that
  /// fenced cached routing state.
  RelaxedCounter epoch_bumps;
  /// Anti-entropy rounds started by arc owners after a membership change.
  RelaxedCounter resync_rounds;
  /// Entries shipped to replicas by re-sync pulls.
  RelaxedCounter resync_entries;
  /// Payload bytes shipped by re-sync pulls.
  RelaxedCounter resync_bytes;
  /// Get/MultiGet attempt re-sends after an attempt timeout (the
  /// in-flight-owner-crash recovery path).
  RelaxedCounter get_retries;
  /// Reconciliation probes sent to remembered (evicted) peers by the
  /// low-cadence ring-merge timer.
  RelaxedCounter merge_probes;
  /// Merge probes received from a host absent from the receiver's routing
  /// table — contact across a ring boundary (foreign or healed ring).
  RelaxedCounter merge_contacts;
  /// Merge replies integrated by the probing side — one completed
  /// probe/reply reconciliation round.
  RelaxedCounter merge_rounds;
  /// Remembered (previously evicted) peers re-contacted alive — each one is
  /// a detected partition heal: the peer was never dead, just unreachable.
  RelaxedCounter partition_heals;

  double MeanHops() const {
    return routes_delivered == 0
               ? 0.0
               : static_cast<double>(total_hops) /
                     static_cast<double>(routes_delivered);
  }
};

/// Caller-visible deadline of one Get or MultiGet: its attempts (the first
/// send plus two re-sends after attempt timeouts) back off geometrically
/// and sum to this, so retries never extend it.
constexpr sim::SimTime kGetTimeout = 10 * sim::kSecond;

/// Tunables for a DHT deployment. The maintenance cadences (500 ms
/// stabilize, 300 ms liveness pings with eviction after two misses) and the
/// two Get re-sends are constants of dht/node.cc.
struct DhtOptions {
  OverlayKind overlay = OverlayKind::kChord;
  /// Copies per key (1 = owner only). With replication > 1, reads are
  /// replica-aware: the MultiGet scatter peels keys at replica holders —
  /// each visited node hands the remainder one hop to the farthest
  /// successor still inside every remaining arc key's replica set, which
  /// answers up to `replication` owners' key ranges at once — and
  /// single-key Get requests stop at the first replica met on the routing
  /// path that holds data under (ns, key). Both peels are
  /// Has-gated: a hop with an EMPTY store never short-circuits, so
  /// replication lag still resolves at the owner authoritatively.
  size_t replication = 1;
  /// Next-hop policy (dht/routing.h): kCongestionAware scores ring-progress
  /// candidates by remaining distance plus destination pressure and routes
  /// around backed-up hops; kClassicChord is the legacy distance-only path
  /// bit-for-bit (and forces the owner location cache off). The default is
  /// env-overridable so a CI leg can run the whole suite on the legacy
  /// path (PIERSTACK_ROUTING_POLICY=classic).
  RoutingPolicyKind routing_policy = DefaultRoutingPolicyKind();
  /// Learn (key arc → owner address) from routed replies/acks and try a
  /// direct one-hop send before ring routing (see dht/route_cache.h).
  /// Ignored — forced off — under kClassicChord.
  bool owner_location_cache = true;
  /// Run periodic ring maintenance (stabilize + fix-fingers, the proactive
  /// failure detector, re-sync and reconcile) on statically bootstrapped
  /// nodes. Off by default so static simulations quiesce; dynamically
  /// joined nodes always run maintenance.
  bool maintenance = false;
};

/// One DHT node. Create via DhtBuilder (static deployments) or construct
/// directly and call JoinViaBootstrap (dynamic).
class DhtNode : public sim::Host {
 public:
  using GetCallback =
      std::function<void(Status, std::vector<std::vector<uint8_t>>)>;
  /// One key's answer within a MultiGet reply: the owner's values under
  /// (ns, key) as one pier::TupleBatch image shared from its image cache.
  struct MultiGetItem {
    Key key = 0;
    BatchImage batch;
  };
  /// Fires once every requested key has been answered (or on timeout, with
  /// the items gathered so far).
  using MultiGetCallback =
      std::function<void(Status, std::vector<MultiGetItem>)>;
  using PutCallback = std::function<void(Status)>;
  using UpcallHandler = std::function<void(const RouteMsg&)>;
  using DirectHandler =
      std::function<void(sim::HostId from, const sim::Message&)>;

  /// The node registers itself with `network` and remembers its HostId.
  DhtNode(sim::Network* network, Key id, const DhtOptions& options,
          DhtMetrics* metrics);
  ~DhtNode() override;

  NodeInfo info() const { return routing_->self(); }
  Key id() const { return routing_->self().id; }
  sim::HostId host() const { return routing_->self().host; }
  sim::Network* network() { return network_; }
  LocalStore& store() { return store_; }
  const LocalStore& store() const { return store_; }
  RoutingTable& routing() { return *routing_; }

  // --- Overlay lifecycle -------------------------------------------------

  /// Static bring-up: install routing state from the full membership list
  /// and mark the node joined. Used by DhtBuilder.
  void BootstrapStatic(const std::vector<NodeInfo>& sorted_members);

  /// Dynamic join through any live node. Ring maintenance timers start on
  /// completion. Chord overlay only.
  void JoinViaBootstrap(sim::HostId bootstrap);

  /// Graceful departure: hands stored keys to the successor and detaches.
  void LeaveGracefully();

  /// Simulates a crash: the host goes silent; peers repair around it.
  /// Before going dark the node snapshots a DurableImage — its local store,
  /// ring id, and peer list — the state a real node's disk survives a power
  /// cycle with. Restart() consumes it.
  void Crash();

  /// Reboots a crashed node under its ORIGINAL identity (same HostId, same
  /// ring key) and rejoins through `bootstrap`. With `durable` (the normal
  /// reboot) the node recovers its store and remembered peers from the
  /// crash-time DurableImage, so post-join anti-entropy re-ships only the
  /// entries that diverged while it was down; with durable=false (amnesia —
  /// the disk was lost) it comes back empty and every entry must be
  /// re-shipped. No-op unless the node is currently crashed.
  void Restart(sim::HostId bootstrap, bool durable = true);

  bool joined() const { return joined_; }
  bool crashed() const { return crashed_; }

  // --- Core API (paper's put/get/route interface) ------------------------
  // Each call below resolves the key's owner on the ring itself; there is
  // no separate owner-lookup RPC.

  /// Routes an application payload to the owner of `target`; the owner's
  /// registered upcall for `app_type` fires with the RouteMsg.
  void Route(Key target, int app_type, std::shared_ptr<const void> body,
             size_t body_bytes, uint64_t req_id = 0);

  /// Stores value under (ns, key) at the key's owner (+ replicas).
  void Put(const std::string& ns, Key key, std::vector<uint8_t> value,
           sim::SimTime expiry = 0, PutCallback callback = nullptr);

  /// Stores many values under (ns, key) with ONE routed message — the
  /// coalesced-rehash primitive. `frames` is `value_count` length-prefixed
  /// values back-to-back (varint length + bytes each, i.e. BytesWriter
  /// PutString framing), built by the sender as one buffer. Charges one
  /// route header for the whole batch instead of one per value; the owner
  /// splits the frames and stores each as its own soft-state entry
  /// (dedup/refresh semantics identical to Put).
  void PutBatch(const std::string& ns, Key key, std::vector<uint8_t> frames,
                size_t value_count, sim::SimTime expiry = 0,
                PutCallback callback = nullptr);

  /// Fetches all values under (ns, key) from the key's owner.
  void Get(const std::string& ns, Key key, GetCallback callback);

  /// Owner-coalesced multi-key Get: fetches the batch images of many keys
  /// with one routed message per distinct owner. The request routes to the
  /// first key's owner, which answers every requested key it owns in one
  /// reply and forwards the remainder as one re-routed message to the next
  /// key's owner — a chained scatter that visits each owner exactly once,
  /// so a K-owner key set costs exactly K routed get messages instead of
  /// one per key. Duplicate keys are collapsed before routing.
  void MultiGet(const std::string& ns, std::vector<Key> keys,
                MultiGetCallback callback);

  /// Caller knobs for one MultiGet call.
  struct MultiGetOptions {
    /// Steer the scatter AWAY from each key's primary owner: the key's
    /// predecessor hands the request to the owner's successor (which holds
    /// the keys in its replica set) instead of the owner itself, and the
    /// origin skips its owner cache so the request travels the ring. This
    /// is the hedged-fetch backup path — a second opinion that avoids the
    /// (presumed slow) primary. Falls back to normal owner delivery when
    /// no live successor qualifies.
    bool prefer_replica = false;
  };

  /// MultiGet with explicit options (the 3-argument form uses defaults).
  void MultiGet(const std::string& ns, std::vector<Key> keys,
                MultiGetCallback callback, const MultiGetOptions& options);

  /// Registers the handler invoked when a routed message for `app_type`
  /// arrives at this node (this node being the key's owner).
  void SetUpcallHandler(int app_type, UpcallHandler handler);

  /// Registers a handler for direct (non-routed) app messages; PIER uses
  /// this for query answers, which bypass the overlay per the paper.
  void SetDirectHandler(DirectHandler handler);

  /// Sends an app message straight to a known host (one network hop).
  /// Returns false when the destination is known-down (connection failed),
  /// which callers may use as a failure signal.
  bool SendDirect(sim::HostId to, sim::Message msg);

  /// Pressure probe of the next hop toward `target`'s owner — the best
  /// local estimate of the congestion a routed message to that key meets
  /// first. With a warm owner location cache the next hop IS the owner, so
  /// the probe reads the actual destination's pressure. Applications
  /// (PIER's adaptive rehash flush, credit windows) drive their batch
  /// policies from this instead of compile-time constants.
  sim::DestinationLoad NextHopLoad(Key target) const;

  /// The learned owner map (diagnostics; tests seed stale entries here).
  RouteCache& route_cache() { return route_cache_; }
  const RouteCache& route_cache() const { return route_cache_; }

  /// True when this node learns and uses owner locations (the cache option
  /// is on and the policy is not the legacy classic path).
  bool OwnerCacheEnabled() const {
    return options_.owner_location_cache &&
           options_.routing_policy != RoutingPolicyKind::kClassicChord;
  }

  // --- sim::Host ---------------------------------------------------------
  void HandleMessage(sim::HostId from, const sim::Message& msg) override;

  /// Ring-maintenance statistics for tests.
  uint64_t stabilize_rounds() const { return stabilize_rounds_; }

  /// This node's membership epoch: bumped whenever its owned arc (or ring
  /// neighborhood) changes — join adoption, predecessor/successor movement,
  /// crash repair, static rebuild. Each bump fences the owner location
  /// cache; upper layers (PIER) register listeners to fence their own
  /// standing state (rehash queues, credit streams).
  uint64_t membership_epoch() const { return membership_epoch_; }

  /// Registers a callback fired synchronously on every epoch bump.
  /// Listeners must not mutate routing state re-entrantly.
  void AddEpochListener(std::function<void()> listener) {
    epoch_listeners_.push_back(std::move(listener));
  }

  // Wire message discriminators (sim::Message::type). kDirectApp is public
  // contract: applications wrap their own direct messages in it (their own
  // discriminator goes in the payload) so DhtNode can dispatch them to the
  // registered DirectHandler.
  enum MsgType : int {
    kRouteStep = 1,
    kGetReply = 2,
    kPutAck = 3,
    kJoinReply = 4,
    kGetPredecessor = 5,
    kPredecessorReply = 6,
    kNotify = 7,
    kFingerReply = 8,
    kKeyTransfer = 9,
    kReplicaPut = 10,
    kDirectApp = 12,
    kLeave = 13,
    kPredecessorPing = 14,
    kReplicaPutBatch = 16,
    kMultiGetReply = 17,
    /// Standalone owner hint for routed deliveries that send no reply the
    /// hint could ride on (un-acked puts, app upcalls). One per multi-hop
    /// cold delivery; the taught origin goes direct afterwards.
    kOwnerHint = 18,
    kLivenessPing = 19,
    kLivenessAck = 20,
    /// Anti-entropy re-sync (owner → replica): per-key digests of the
    /// owner's arc.
    kResyncDigest = 21,
    /// Replica → owner: keys whose digest diverged; please ship entries.
    kResyncPull = 22,
    /// Owner → replica: the pulled entries (KeyTransferBody payload).
    kResyncEntries = 23,
    /// Ring-merge reconciliation probe to a remembered (evicted) peer:
    /// carries the prober's identity + successor view. A live receiver
    /// integrates it and answers with kMergeReply.
    kMergeProbe = 24,
    /// The receiver's identity + successor view back to the prober; both
    /// sides now hold cross-ring successors and stabilization knits the
    /// rings.
    kMergeReply = 25,
  };

 private:

  struct PutBody {
    std::string ns;
    Key key;
    std::vector<uint8_t> value;
    sim::SimTime expiry;
    bool want_ack;
  };
  struct GetBody {
    std::string ns;
    Key key;
  };
  struct PutBatchBody {
    std::string ns;
    Key key;
    std::vector<uint8_t> frames;  ///< Length-prefixed values, one buffer.
    uint64_t value_count;
    sim::SimTime expiry;
    bool want_ack;
  };
  struct JoinReplyBody {
    NodeInfo owner;
    std::vector<NodeInfo> successor_list;
  };
  struct PredecessorReplyBody {
    uint64_t seq;
    NodeInfo predecessor;
    std::vector<NodeInfo> successor_list;
  };
  struct FingerLookupBody {
    size_t index;
  };
  struct FingerReplyBody {
    size_t index;
    NodeInfo owner;
  };
  struct KeyTransferBody {
    // (ns, key, value, expiry) tuples being handed over.
    struct Entry {
      std::string ns;
      StoredValue value;
    };
    std::vector<Entry> entries;
  };
  struct GetReplyBody {
    uint64_t req_id;
    std::vector<std::vector<uint8_t>> values;
    OwnerHint hint;  ///< Teaches the requester the answering owner's arc.
  };
  struct MultiGetBody {
    std::string ns;
    std::vector<Key> keys;  ///< Keys still awaiting an owner.
    /// Set on a replica handoff: the receiver is owner-or-replica for every
    /// key in (arc_start, receiver.id] and must answer those keys
    /// authoritatively (empty included) even though it does not own them.
    bool arc_valid = false;
    Key arc_start = 0;
    /// Hedged-fetch steering (MultiGetOptions::prefer_replica): divert the
    /// final hop to the owner's successor instead of the owner. Cleared on
    /// the replica handoff itself (the diversion happens once per owner).
    bool prefer_replica = false;
  };
  struct MultiGetReplyBody {
    uint64_t req_id;
    std::vector<MultiGetItem> items;  ///< This owner's share of the keys.
    OwnerHint hint;
  };

  ChordRouting* chord() const;

  void ForwardOrDeliver(RouteMsg msg);
  /// Origin-side owner-cache fast path: when a cached arc covers the
  /// target, sends the message straight to the remembered owner (one hop)
  /// and returns true. A refused send invalidates the entry and returns
  /// false — the caller ring-routes as if the cache had missed.
  bool TryCacheFastPath(const RouteMsg& msg);
  void DeliverLocally(const RouteMsg& msg);
  /// The hint this node may attach to replies for a delivery of `target`:
  /// valid only when this node answers as the key's owner (replica peels
  /// teach nothing), covering the owned arc when the predecessor is known
  /// and the single routed key otherwise.
  OwnerHint OwnerHintFor(Key target) const;
  /// Folds a received hint into the route cache (metrics-counted).
  void LearnOwner(const OwnerHint& hint);
  /// Teaches msg.origin via a standalone kOwnerHint when the delivery was
  /// multi-hop, not already cache-routed, and produces no hinted reply.
  void MaybeSendOwnerHint(const RouteMsg& msg);
  /// RemovePeer plus owner-cache invalidation — every failure-detector
  /// site must drop a dead host from BOTH routing structures.
  void DropPeer(sim::HostId host);
  void HandlePutUpcall(const RouteMsg& msg);
  void HandlePutBatchUpcall(const RouteMsg& msg);
  /// Splits a PutBatch frame buffer and stores each value. A malformed
  /// buffer stops at the first bad frame (the earlier frames stand — the
  /// same salvage rule as the tuple-batch decoder).
  void StoreBatchFrames(const PutBatchBody& put);
  void HandleGetUpcall(const RouteMsg& msg);
  void HandleGetMultiUpcall(const RouteMsg& msg);
  /// Replica-aware scatter shortcut: hands the unanswered keys one hop to
  /// the farthest successor that can answer the next key from its replica
  /// set (plus everything between). Returns false when no successor
  /// qualifies (replication 1, option off, next key beyond the replica
  /// arc, or all candidates down) — the caller falls back to routing the
  /// remainder to the next key's owner.
  bool ForwardMultiGetViaReplica(const RouteMsg& msg, const std::string& ns,
                                 const std::vector<Key>& rest);
  /// Hedge diversion at the final hop: a replica-preferring MultiGet about
  /// to be delivered to the target key's owner is handed to the owner's
  /// successor instead (which answers the owner's arc from its replica
  /// set). Returns false when no live qualifying successor exists — the
  /// caller falls through to normal owner delivery.
  bool DivertMultiGetToReplica(const RouteMsg& msg, const MultiGetBody& get);
  void HandleJoinLookupUpcall(const RouteMsg& msg);
  void HandleFingerLookupUpcall(const RouteMsg& msg);
  void ReplicateEntry(const std::string& ns, Key key,
                      const std::vector<uint8_t>& value, sim::SimTime expiry);

  void StartMaintenanceTimers();
  /// Cancels every maintenance timer plus the in-flight stabilize timeout
  /// — a crashed or departed node must never fire another event.
  void CancelMaintenanceTimers();
  /// Cancels pending request watchdogs and drops the callbacks silently
  /// (crash semantics: the host is gone, nobody is listening).
  void CancelPendingRequests();
  void DoStabilize();
  void DoFixFinger();
  void OnStabilizeTimeout(uint64_t seq, sim::HostId suspect);
  /// One proactive-liveness round: evict peers past the miss threshold,
  /// ping the ring neighborhood, rotate one finger probe.
  void DoFailureDetector();
  /// One anti-entropy round: if the membership-dirty flag is set, digest
  /// the owned arc and push digests to the replica set.
  void DoResync();
  void HandleResyncDigest(sim::HostId from, const sim::Message& msg);
  void HandleResyncPull(sim::HostId from, const sim::Message& msg);
  /// Sends per-key digests of `(arc_start, arc_end]` (every namespace) to
  /// `to` — the anti-entropy opener used by both the periodic re-sync round
  /// and the predecessor-adoption handover. The receiver pulls what it
  /// lacks and pushes back what the sender lacks, so only diverged entries
  /// cross the wire in either direction.
  void SendArcDigests(sim::HostId to, Key arc_start, Key arc_end);
  /// One ring-merge reconciliation round: probe the next remembered peer
  /// (if any), then re-arm the timer.
  void DoReconcile();
  void HandleMergeProbe(sim::HostId from, const sim::Message& msg);
  void HandleMergeReply(sim::HostId from, const sim::Message& msg);
  /// Folds a merge probe/reply's view into local routing state: offers the
  /// sender and its successors to our successor list, considers the sender
  /// as predecessor, and counts a partition heal when the sender was a
  /// remembered (presumed-dead) peer.
  void IntegrateForeignView(const NodeInfo& sender,
                            const std::vector<NodeInfo>& successors);
  /// The kNotify adopt rule factored out so merge integration shares it:
  /// adopts `cand` as predecessor when it tightens the arc, and hands the
  /// keys of the ceded range over (digest-driven with replication, moved
  /// outright without).
  void ConsiderPredecessor(const NodeInfo& cand);
  /// ChordRouting membership-listener sink: bumps the epoch on ownership
  /// change, marks the re-sync flag when replication needs repair.
  void OnMembershipChange(bool ownership_changed, bool replica_set_changed);
  void BumpEpoch();

  void OnGetAttemptTimeout(uint64_t req_id);
  void OnMultiGetAttemptTimeout(uint64_t req_id);

  /// Route() with an explicit origin — MultiGet forwards keep the original
  /// requester as the reply target while re-routing the remaining keys.
  void RouteAs(const NodeInfo& origin, Key target, int app_type,
               std::shared_ptr<const void> body, size_t body_bytes,
               uint64_t req_id);

  /// (Re-)arms the progress watchdog of a pending MultiGet for retry
  /// attempt `attempt`: an expiry re-sends the unanswered keys (attempts
  /// remaining) or resolves with the items gathered so far.
  sim::EventId ArmMultiGetTimeout(uint64_t req_id, uint32_t attempt);

  uint64_t NextReqId() { return next_req_id_++; }
  size_t RouteHeaderBytes() const { return 40; }

  sim::Network* network_;
  DhtOptions options_;
  DhtMetrics* metrics_;
  std::unique_ptr<RoutingTable> routing_;
  std::unique_ptr<NextHopPolicy> policy_;
  RouteCache route_cache_;
  LoadProbe load_probe_;
  LocalStore store_;
  bool joined_ = false;
  bool crashed_ = false;

  std::map<int, UpcallHandler> upcalls_;
  DirectHandler direct_handler_;

  uint64_t next_req_id_ = 1;
  struct PendingGet {
    GetCallback callback;
    // Request identity kept for attempt re-sends.
    std::shared_ptr<const void> body;
    Key key = 0;
    size_t bytes = 0;
    uint32_t attempts = 0;
    sim::EventId timeout = sim::kInvalidEventId;
  };
  std::map<uint64_t, PendingGet> pending_gets_;
  struct PendingMultiGet {
    MultiGetCallback callback;
    std::string ns;
    /// Keys not yet answered by any owner. A set (not a count) so the
    /// duplicate answers a retry race produces are deduplicated instead of
    /// double-counted.
    std::set<Key> unanswered;
    std::vector<MultiGetItem> items;
    uint32_t attempts = 0;
    sim::EventId timeout = sim::kInvalidEventId;
  };
  std::map<uint64_t, PendingMultiGet> pending_multi_gets_;
  std::map<uint64_t, PutCallback> pending_puts_;

  uint64_t stabilize_seq_ = 0;
  uint64_t last_stabilize_reply_ = 0;
  sim::EventId stabilize_timer_ = sim::kInvalidEventId;
  sim::EventId fix_finger_timer_ = sim::kInvalidEventId;
  sim::EventId stabilize_timeout_ = sim::kInvalidEventId;
  uint64_t stabilize_rounds_ = 0;
  size_t next_finger_ = 0;

  // Proactive failure detector.
  sim::EventId detector_timer_ = sim::kInvalidEventId;
  /// Unanswered ping rounds per probed host; threshold crossing evicts.
  std::map<sim::HostId, uint32_t> ping_outstanding_;
  size_t detector_finger_ = 0;  ///< Rotating finger-probe cursor.

  // Replica re-sync.
  sim::EventId resync_timer_ = sim::kInvalidEventId;
  /// Set by membership changes; cleared when a re-sync round runs with a
  /// known predecessor (the arc is well-defined).
  bool resync_dirty_ = false;

  // Ring-merge reconciliation.
  sim::EventId reconcile_timer_ = sim::kInvalidEventId;
  size_t reconcile_cursor_ = 0;  ///< Rotates over the remembered peers.

  /// What a real node's disk carries across a power cycle: taken by
  /// Crash(), consumed by Restart(durable=true), ignored by amnesia
  /// restarts.
  struct DurableImage {
    bool valid = false;
    LocalStore store;
    std::vector<NodeInfo> peers;  ///< Known + remembered peers at crash.
  };
  DurableImage durable_image_;

  // Membership epoch.
  uint64_t membership_epoch_ = 0;
  std::vector<std::function<void()>> epoch_listeners_;
};

/// Surfaces the DHT transport counters into a CounterSet under "dht."
/// names — the cross-layer reporting currency (see common/stats.h).
void ExportTransportCounters(const DhtMetrics& m, CounterSet* out);

}  // namespace pierstack::dht
