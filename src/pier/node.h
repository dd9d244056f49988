// PierNode: PIER's per-node query processor over the DHT.
//
// Responsibilities (paper Sections 2–3):
//  * table storage: every tuple is published into the DHT under its
//    schema's index field and scanned from the owner's LocalStore,
//  * rehash queues: the one publish path — standing per-destination send
//    buffers that coalesce published tuples ACROSS calls into PutBatch
//    messages, flushed by size or a simulator-clock interval (real PIER's
//    rehash-queue design),
//  * owner-coalesced fetch: the one fetch path — keyed tuples resolve with
//    one routed MultiGet message per distinct owner, a single key included,
//  * distributed query execution: declarative plans (pier/plan.h) are
//    compiled into a chain of distributed stages (pier/plan_exec.h) —
//    index scans with serializable Expr filters, symmetric-hash-joined
//    hop by hop, Figure 2's query plan being the undecorated special case
//    and Figure 3's single-site InvertedCache plan the one-stage one.
//    Every stage's output is a list of [join_key, payload...] rows; rows
//    travel stage to stage and back to the query node as the TupleBatch
//    image of the list and stream in chunks past a flush threshold,
//    credit-paced with a window seeded from the consumer's observed
//    service rate, with weight-throwing termination so the query node
//    knows when the chunked answer stream is complete,
//  * result streaming: final answers travel directly to the query node,
//    bypassing the overlay ("With the exception of query answers, all
//    messages are sent via the DHT routing layer").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dht/node.h"
#include "pier/completeness.h"
#include "pier/ops.h"
#include "pier/plan.h"
#include "pier/plan_exec.h"
#include "pier/schema.h"

namespace pierstack::pier {

/// Aggregate counters for one PIER deployment.
struct PierMetrics {
  RelaxedCounter tuples_published;
  RelaxedCounter publish_bytes;           ///< Application bytes (tuples only).
  RelaxedCounter publish_messages;        ///< DHT put messages issued.
  RelaxedCounter joins_executed;
  RelaxedCounter plans_executed;          ///< ExecutePlan invocations.
  RelaxedCounter join_stage_messages;
  RelaxedCounter posting_entries_shipped; ///< Entries rehashed between stages.
  RelaxedCounter probe_messages;
  RelaxedCounter multi_fetches;           ///< FetchMany calls (owner-coalesced).
  /// Stored tuples lost to deserialize failures across ScanLocal /
  /// FetchMany / join stages. Non-zero means stored state was corrupted
  /// somewhere — the integration suite asserts this stays 0.
  RelaxedCounter tuples_dropped_deserialize;
  /// Rehash-queue flushes triggered by the load-adaptive threshold (below
  /// the fixed max_batch_tuples ceiling): the destination looked idle, so
  /// the queue shipped early for latency.
  RelaxedCounter adaptive_flushes;
  /// Join chunk streams that paused emission because the downstream stage
  /// owner had not granted credit yet — each count is one backpressure
  /// stall episode, not one withheld chunk.
  RelaxedCounter credits_stalled;
  /// Credit-window grants received in chunk acks.
  RelaxedCounter credit_grants;
  /// Chunk streams whose initial credit window was deepened past the
  /// configured constant because the consumer's observed service rate
  /// (smoothed delivery latency) earned a longer pipeline.
  RelaxedCounter credit_window_boosts;
  /// Chunk streams dropped because no credit arrived within the stall
  /// timeout (the downstream owner died); the query completes via its own
  /// timeout with partial results.
  RelaxedCounter credit_streams_expired;
  /// Membership-epoch fences applied by this deployment's PIER layer: each
  /// is one DHT ownership change propagated up to re-probe standing rehash
  /// queues and kick stalled credit streams.
  RelaxedCounter epoch_fences;
  /// Stalled credit streams kicked by an epoch fence: the granting owner
  /// may have died, so the stream advances one chunk against the new ring
  /// instead of sitting out the stall timeout.
  RelaxedCounter epoch_stream_kicks;
  /// Staged queries re-dispatched under a new generation because the
  /// progress watchdog (or an epoch fence) saw no reply weight advancing —
  /// the stage owner's key arc re-resolves to its replica-holding
  /// successor instead of the query sitting out its deadline.
  RelaxedCounter stage_failovers;
  /// Backup replica-preferring MultiGet scatters issued for fetch legs
  /// whose next-hop latency EWMA crossed the hedge threshold.
  RelaxedCounter hedges_sent;
  /// Hedged fetches where the backup answered first (primary suppressed).
  RelaxedCounter hedges_won;
  /// Stage-0 plans refused by admission control at the stage owner.
  RelaxedCounter plans_shed;
  /// Refused plans the origin re-dispatched after the retry-after hint.
  RelaxedCounter plans_deferred;
  /// Top-level query results delivered with a non-exact Completeness
  /// record. The robustness gate holds this equal to the partials callers
  /// observe — a partial answer is never silent.
  RelaxedCounter partial_results;
};

/// Rehash-queue and join-stage flush/pacing policy.
///
/// A standing destination queue ships as one PutBatch message when it
/// reaches a size bound, or when `flush_interval` elapses since its first
/// pending tuple. The tuple bound is load-adaptive: the sender probes the
/// pressure toward the destination (sim::Network's per-destination
/// in-flight signals via the next routing hop — with a warm owner location
/// cache the next hop IS the owner, so the probe reads the actual
/// destination) and flushes at `min_batch_tuples` when the path is idle —
/// latency — doubling its patience with every in-flight message until the
/// fixed `max_batch_tuples` ceiling (or 48 KiB of frames) — throughput under
/// load. Setting `min_batch_tuples = max_batch_tuples` pins the fixed bound.
///
/// A join stage's surviving entry list streams onward in chunks of at most
/// `max_stage_entries`. When the chunk count exceeds the credit window,
/// emission is credit-paced: the producer sends a window of chunks and
/// waits for the stage owner's acks (each granting one more chunk) before
/// sending more, so a slow owner backpressures its upstream instead of
/// being buried. The window never drops below one chunk.
///
/// The initial window is seeded from the consumer's observed service rate:
/// the producer probes the smoothed delivery latency toward the stage's
/// next hop (sim::DestinationLoad's EWMA) and doubles the window for every
/// halving of observed latency below a 40 ms reference, up to
/// `max_stage_credit_chunks` — fast owners earn deeper pipelines
/// automatically. `stage_credit_chunks` stays the floor (slow or unmeasured
/// paths never drop below it) and `max_stage_credit_chunks` the ceiling;
/// setting the two equal pins a constant window. A credit-starved stream is
/// dropped after 10 s without a grant (downstream owner presumed dead); the
/// join's own timeout then returns partial results, exactly as for any lost
/// chunk.
struct BatchOptions {
  size_t max_batch_tuples = 256;
  sim::SimTime flush_interval = 50 * sim::kMillisecond;
  size_t max_stage_entries = 1024;
  size_t min_batch_tuples = 16;
  size_t stage_credit_chunks = 4;
  size_t max_stage_credit_chunks = 32;

  // --- Fault-tolerant query plane ----------------------------------------

  /// Stage re-dispatches one staged query may spend when its progress
  /// watchdog sees no reply weight advancing (a crashed or partitioned
  /// stage owner). Each failover bumps the query generation — stale
  /// replies are fenced — and re-routes stage 0 against the current ring,
  /// landing on the replica-holding successor. 0 disables failover (the
  /// legacy sit-out-the-deadline behavior).
  size_t stage_failover_budget = 2;
  /// Hedge FetchMany legs whose probed next-hop smoothed latency exceeds
  /// 60ms: a backup replica-preferring scatter races the primary after a
  /// quantile-style delay (see node.cc); the first complete answer wins
  /// and the duplicate is suppressed by the shared fetch state.
  bool hedged_fetches = true;

  // Stage-0 admission control at the stage owner: refuse plans whose
  // posting list (the entry volume the plan would scan and ship) exceeds a
  // pressure-scaled budget. Refusals carry a retry-after hint; the origin
  // defers and retries within its deadline, up to kAdmissionDeferBudget
  // times, or resolves the query as an explicit labeled shed.

  /// In-flight messages at the owner below which every plan is admitted
  /// (an idle node never sheds).
  uint32_t admission_inflight_floor = 4;
  /// Entry budget at the first pressure level; halves per level above the
  /// floor, never below admission_min_entries.
  size_t admission_base_entries = 4096;
  size_t admission_min_entries = 64;
  /// Base back-off hint attached to refusals (scaled by pressure level).
  sim::SimTime admission_retry_after = 200 * sim::kMillisecond;
};

/// Deferrals one query absorbs before an admission refusal becomes a shed.
constexpr size_t kAdmissionDeferBudget = 2;

/// Ack aggregate of one PublishBatch call (defined in node.cc).
struct PublishAck;

class PierNode {
 public:
  /// Query-plane callbacks carry a Completeness record (see
  /// pier/completeness.h): partial answers are labeled, never silent.
  using PlanCallback =
      std::function<void(Status, std::vector<Tuple>, const Completeness&)>;
  using FetchCallback =
      std::function<void(Status, std::vector<Tuple>, const Completeness&)>;
  using ProbeCallback = std::function<void(Status, size_t posting_size)>;

  /// Attaches PIER to a DHT node. Claims the DHT node's upcall slots for
  /// PIER app types and its direct-message handler.
  PierNode(dht::DhtNode* dht, PierMetrics* metrics);
  ~PierNode();

  dht::DhtNode* dht() { return dht_; }
  sim::HostId host() const { return dht_->host(); }

  /// Publishes tuples into the DHT under their schema's index field through
  /// the standing rehash queues: each tuple joins its destination's send
  /// buffer, which ships as one PutBatch message when it fills
  /// (BatchOptions size bounds) or when the flush interval elapses — so
  /// tuples coalesce across PublishBatch calls, not just within one (e.g.
  /// the QRS snoop path publishing file-by-file). A differing expiry
  /// flushes the destination's queue first, so a refresh never ships ahead
  /// of an older expiry. The callback, when given, fires once after every
  /// batch carrying this call's tuples is acked (first error wins).
  void PublishBatch(const Schema& schema, std::vector<Tuple> tuples,
                    sim::SimTime expiry = 0,
                    dht::DhtNode::PutCallback callback = nullptr);

  /// Force-ships every standing rehash queue now (shutdown, barrier before
  /// a measurement, or a latency-sensitive caller that cannot wait out the
  /// flush interval).
  void FlushPublishQueues();

  void set_batch_options(const BatchOptions& options) {
    batch_options_ = options;
  }

  /// Tuples of `schema` stored locally under `key` (post hash-collision
  /// filtering on the key column).
  std::vector<Tuple> ScanLocal(const Schema& schema, const Value& key);

  /// Owner-coalesced fetch: all tuples of `schema` keyed by any of `keys`,
  /// grouped by resolved owner so a K-owner key set costs K routed get
  /// messages with one TupleBatch reply per owner (see
  /// dht::DhtNode::MultiGet). A single key is a one-key set.
  void FetchMany(const Schema& schema, std::vector<Value> keys,
                 FetchCallback callback);

  /// Asks the owner of (ns, key) for its posting-list size — the optimizer
  /// probe behind the "smaller posting lists first" ordering.
  void ProbePostingSize(const std::string& ns, const Value& key,
                        ProbeCallback callback);

  /// Runs a declarative query plan (pier/plan.h): compiles it into a chain
  /// of distributed stages, walks the chain over the rehash/credit/chunk
  /// transport, applies the plan's query-node finishers (aggregates, top-k,
  /// limits) and — when the plan ends in a FetchJoin — resolves the
  /// surviving join keys through one owner-coalesced fetch, all within
  /// `timeout`. The callback receives the final rows: [join_key,
  /// payload...] rows for plans without a FetchJoin, fetched tuples
  /// otherwise.
  void ExecutePlan(QueryPlan plan, PlanCallback callback,
                   sim::SimTime timeout = 30 * sim::kSecond);

 private:
  // Routed app types (offsets from dht::kAppUserBase).
  static constexpr int kAppJoinStage = dht::kAppUserBase + 1;
  static constexpr int kAppSizeProbe = dht::kAppUserBase + 2;
  // Direct message subtypes (within dht::DhtNode::kDirectApp).
  static constexpr int kJoinReply = 1;
  static constexpr int kProbeReply = 2;
  static constexpr int kChunkCredit = 3;
  /// Admission-control refusal: the stage-0 owner declined the plan; the
  /// envelope carries a retry-after hint back to the query origin.
  static constexpr int kPlanRefused = 4;
  /// Termination weight of a whole join (Mattern weight-throwing): the
  /// initial stage message carries it all; every chunk split divides it;
  /// every reply returns its share. The query node is done when the
  /// returned weights sum back to the full amount — correct under
  /// arbitrary reordering of chunked replies.
  static constexpr uint64_t kFullJoinWeight = uint64_t{1} << 62;

  struct JoinStageMsg {
    uint64_t qid;
    std::shared_ptr<const StagedQuery> query;
    size_t stage_idx;
    /// Incoming [join_key, payload...] rows as their TupleBatch image.
    std::vector<uint8_t> entries_image;
    uint64_t weight;
    dht::NodeInfo origin;
    /// Credit-paced chunk stream this message belongs to (0 = unpaced).
    /// The receiving stage owner acks each chunk with a kChunkCredit
    /// direct message to `producer`, granting the next send.
    uint64_t stream_id = 0;
    dht::NodeInfo producer;
    /// Failover fence: bumped per stage-0 re-dispatch; replies echo it so
    /// the query node ignores answers from a superseded dispatch.
    uint32_t generation = 0;
  };
  struct SizeProbeMsg {
    uint64_t qid;
    std::string ns;
    Value key;
  };
  struct DirectEnvelope {
    int subtype;
    uint64_t qid;
    std::vector<uint8_t> entries_image;  // kJoinReply
    uint64_t weight = 0;                 // kJoinReply
    size_t posting_size = 0;             // kProbeReply
    uint64_t stream_id = 0;              // kChunkCredit
    uint32_t credits = 0;                // kChunkCredit
    uint32_t generation = 0;             // kJoinReply / kPlanRefused
    sim::SimTime retry_after = 0;        // kPlanRefused back-off hint
  };

  /// One standing rehash queue: the pending PutBatch frame buffer for one
  /// (namespace, destination key).
  struct RehashQueue {
    BytesWriter frames;
    size_t count = 0;
    sim::SimTime expiry = 0;
    /// Load-adaptive tuple bound, probed once per fill cycle (at the first
    /// enqueue after the queue drains) — queues are erased on flush, so
    /// every batch re-probes without paying a routing lookup per tuple.
    size_t flush_threshold = 0;
    sim::EventId flush_timer = sim::kInvalidEventId;
    /// Ack aggregates of the PublishBatch calls with tuples in this queue
    /// since its last flush.
    std::vector<std::shared_ptr<PublishAck>> subscribers;
  };

  /// One credit-paced chunk stream: the pending tail of one stage-to-stage
  /// entry list, drained as the downstream owner grants credit.
  struct ChunkStream {
    uint64_t qid = 0;
    std::shared_ptr<const StagedQuery> query;
    size_t stage_idx = 0;
    dht::NodeInfo origin;
    dht::Key target = 0;
    std::vector<std::vector<Tuple>> chunks;  ///< Unsent tail of rows.
    std::vector<uint64_t> weights;  ///< Parallel to `chunks`.
    size_t next = 0;                ///< First unsent chunk index.
    size_t credits = 0;
    sim::EventId stall_timer = sim::kInvalidEventId;
    uint32_t generation = 0;  ///< Stamped onto every forwarded chunk.
  };

  /// The distributed engine behind ExecutePlan: runs the staged chain,
  /// accumulating chunked replies at this node. Non-exact results are not
  /// counted here; ExecutePlan counts partial_results once at its own
  /// final resolution.
  void ExecuteStaged(std::shared_ptr<const StagedQuery> query,
                     PlanCallback callback, sim::SimTime timeout);

  /// FetchMany by table name and key column, as a FetchJoin plan node
  /// names them, with the partial-result accounting flag (plan fetch legs
  /// pass top_level=false; their plan counts the partial once).
  void FetchManyInternal(const std::string& ns, size_t index_field,
                         std::vector<Value> keys, FetchCallback callback,
                         bool top_level);

  /// (Re-)routes the staged query's stage-0 message under the pending
  /// join's current generation and re-arms its progress watchdog.
  void DispatchStage0(uint64_t qid);
  /// Arms the pending join's no-progress watchdog (geometric slices of the
  /// overall timeout, the AttemptTimeout pattern).
  void ArmJoinWatchdog(uint64_t qid);
  /// Watchdog/epoch probe: reply weight advanced since the last check →
  /// keep watching; stalled with failover budget left → re-dispatch under
  /// a new generation; stalled and spent → leave the deadline to deliver
  /// the labeled partial.
  void CheckJoinProgress(uint64_t qid);
  /// Resolves a pending join: folds the returned weight fraction into its
  /// Completeness, counts a labeled partial when non-exact, fires the
  /// callback, and erases the entry.
  void ResolveJoin(uint64_t qid, Status s);
  /// Stage-0 admission decision at the stage owner. Refusals count
  /// plans_shed and send a kPlanRefused envelope (with a pressure-scaled
  /// retry-after hint) back to the origin; returns false when refused.
  bool AdmitStage0(const JoinStageMsg& m);
  /// Origin side of a refusal: defer and re-dispatch within the deadline,
  /// or resolve the query as an explicit labeled shed.
  void OnPlanRefused(const DirectEnvelope& env);

  void OnJoinStage(const dht::RouteMsg& msg);
  void OnSizeProbe(const dht::RouteMsg& msg);
  void OnDirect(sim::HostId from, const sim::Message& msg);
  void OnChunkCredit(const DirectEnvelope& env);
  /// DHT membership-epoch listener: fences this node's standing transport
  /// state against the ownership change (see the definition).
  void OnMembershipEpoch();

  using QueueMap = std::map<std::pair<std::string, dht::Key>, RehashQueue>;

  void EnqueueRehash(const std::string& ns, dht::Key key, const Tuple& tuple,
                     size_t wire_size, sim::SimTime expiry,
                     const std::shared_ptr<PublishAck>& ack);
  /// The load-adaptive tuple flush bound for a queue headed to `key`'s
  /// owner.
  size_t FlushThresholdTuples(dht::Key key) const;
  void FlushQueue(const std::pair<std::string, dht::Key>& dest,
                  RehashQueue* q);
  /// Flushes and drops the queue's map node (queues are re-created on
  /// demand, so drained destinations don't accumulate). Returns the next
  /// iterator.
  QueueMap::iterator FlushAndErase(QueueMap::iterator it);

  /// Sends the (possibly chunked) surviving rows to the next stage,
  /// credit-paced past the adaptive credit window.
  void ForwardToStage(const JoinStageMsg& prev,
                      std::vector<Tuple> surviving);
  /// The initial credit window for a chunk stream toward `target`'s stage
  /// owner: the configured floor (at least one chunk), deepened by the
  /// consumer's observed service rate (see BatchOptions).
  size_t CreditWindowChunks(dht::Key target);
  /// Emits chunk `idx` of `stream` toward its target stage; a non-zero
  /// `stream_id` marks it credit-paced (the receiver acks it).
  void SendChunk(ChunkStream* stream, size_t idx, uint64_t stream_id);
  /// Drains `stream` while it has credit; pauses (recording the stall and
  /// arming the stall timer) when credit runs out, completes it otherwise.
  /// The map node is erased on completion — `it` is invalid after.
  void PumpStream(std::map<uint64_t, ChunkStream>::iterator it);
  void SendJoinReply(const dht::NodeInfo& origin, uint64_t qid,
                     std::vector<Tuple> rows, uint64_t weight,
                     uint32_t generation);

  /// The stage's [join_key, payload...] rows: one per tuple of (ns, key)
  /// passing its filter, sliced from one shared arena.
  std::vector<Tuple> LocalStageEntries(const ExecStage& stage);

  /// One-shot decode of a locally stored (ns, key) posting list; counts
  /// undecodable tuples into tuples_dropped_deserialize.
  std::vector<Tuple> DecodeLocalBatch(const std::string& ns, dht::Key key);

  static size_t StageMsgWireSize(const JoinStageMsg& m);

  uint64_t NextQid() { return next_qid_++; }

  dht::DhtNode* dht_;
  PierMetrics* metrics_;
  BatchOptions batch_options_;
  uint64_t next_qid_ = 1;

  /// (namespace, destination key) -> standing send buffer. Nodes exist
  /// only while tuples are pending: every flush outside EnqueueRehash
  /// erases the drained node, bounding the map by in-flight destinations.
  QueueMap rehash_queues_;

  struct PendingJoin {
    PlanCallback callback;
    sim::EventId timeout = sim::kInvalidEventId;
    std::vector<Tuple> rows;  ///< Accumulated chunk replies.
    /// The query's answer cap over `rows`.
    RowCap cap{StagedQuery::Cap::kNone, SIZE_MAX};
    uint64_t weight_received = 0;
    /// Failover fence: replies stamped with an older generation belong to
    /// a superseded dispatch and are ignored.
    uint32_t generation = 0;
    std::shared_ptr<const StagedQuery> query;  ///< Kept for re-dispatch.
    sim::SimTime deadline = 0;       ///< Absolute overall deadline.
    sim::SimTime dispatched_at = 0;  ///< Last (re-)dispatch time.
    size_t failovers_left = 0;
    size_t defers_left = 0;
    /// Current no-progress check interval (doubles per failover; 0 = off).
    sim::SimTime watchdog_interval = 0;
    uint64_t watchdog_weight = 0;  ///< weight_received at the last check.
    sim::EventId watchdog = sim::kInvalidEventId;
    Completeness completeness;
  };
  std::map<uint64_t, PendingJoin> pending_joins_;
  struct PendingProbe {
    ProbeCallback callback;
    sim::EventId timeout = sim::kInvalidEventId;
  };
  std::map<uint64_t, PendingProbe> pending_probes_;
  /// Outbound credit-paced chunk streams by stream id.
  std::map<uint64_t, ChunkStream> chunk_streams_;
  uint64_t next_stream_id_ = 1;
  /// Guards OnMembershipEpoch against re-entry: a fence's own flushes can
  /// detect further dead peers and bump the epoch again mid-iteration.
  bool fencing_ = false;
  /// Liveness token for the epoch listener registered with the DHT node
  /// (which outlives this PierNode and has no listener-removal API).
  std::shared_ptr<bool> alive_;
};

/// Surfaces the PIER transport counters into a CounterSet under "pier."
/// names — the cross-layer reporting currency (see common/stats.h).
void ExportTransportCounters(const PierMetrics& m, CounterSet* out);

}  // namespace pierstack::pier
