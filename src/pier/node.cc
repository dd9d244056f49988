#include "pier/node.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "pier/tuple_batch.h"

namespace pierstack::pier {

namespace {

/// A standing queue also ships once its frame buffer reaches this size,
/// whatever the tuple bound.
constexpr size_t kMaxBatchBytes = 48 * 1024;

/// A fetch leg is hedged when its next-hop smoothed latency exceeds the
/// threshold. The backup waits max(min delay, factor × latency) — fire only
/// when the primary is genuinely late — capped so a degraded leg's inflated
/// EWMA cannot push the backup past the primary's own retry schedule.
constexpr sim::SimTime kHedgeLatencyThreshold = 60 * sim::kMillisecond;
constexpr sim::SimTime kHedgeMinDelay = 50 * sim::kMillisecond;
constexpr unsigned kHedgeDelayFactor = 3;
constexpr sim::SimTime kHedgeMaxDelay = 500 * sim::kMillisecond;

/// Every halving of a chunk stream's observed next-hop latency below this
/// reference doubles its initial credit window (see CreditWindowChunks).
constexpr sim::SimTime kCreditLatencyRef = 40 * sim::kMillisecond;
/// A credit-starved chunk stream is dropped after this long without a
/// grant (downstream owner presumed dead).
constexpr sim::SimTime kCreditStallTimeout = 10 * sim::kSecond;

dht::Key DhtKeyFor(const std::string& ns, const Value& key) {
  return HashCombine(Fnv1a64(ns), key.Hash());
}

/// The [join_key, payload...] rows of a stage or reply image; rows lost to
/// corruption, and rows without a join key, count into `*dropped`.
std::vector<Tuple> DecodeRows(const std::vector<uint8_t>& image,
                              size_t* dropped) {
  std::vector<Tuple> rows =
      TupleBatch::DeserializeLossy(image, dropped).TakeTuples();
  auto keyless = std::remove_if(rows.begin(), rows.end(), [](const Tuple& t) {
    return t.arity() == 0;
  });
  *dropped += static_cast<size_t>(rows.end() - keyless);
  rows.erase(keyless, rows.end());
  return rows;
}

}  // namespace

/// Aggregate ack of one PublishBatch call: `remaining` counts outstanding
/// obligations — standing queues still holding this call's tuples plus
/// flushed batches not yet acked. The callback fires once, after the call
/// finished enqueuing (`armed`) and every obligation resolved. Resolutions
/// are usually asynchronous (simulator events), but a flush on a departed
/// node fails its subscribers synchronously — hence the explicit
/// fired/armed handshake instead of ordering assumptions.
struct PublishAck {
  size_t remaining = 0;
  bool armed = false;
  bool fired = false;
  Status first_error;
  dht::DhtNode::PutCallback callback;

  void Resolve(Status s) {
    if (!s.ok() && first_error.ok()) first_error = s;
    --remaining;
    MaybeFire();
  }
  void MaybeFire() {
    if (armed && !fired && remaining == 0) {
      fired = true;
      callback(first_error);
    }
  }
};

PierNode::PierNode(dht::DhtNode* dht, PierMetrics* metrics)
    : dht_(dht), metrics_(metrics) {
  assert(dht != nullptr && metrics != nullptr);
  dht_->SetUpcallHandler(kAppJoinStage,
                         [this](const dht::RouteMsg& m) { OnJoinStage(m); });
  dht_->SetUpcallHandler(kAppSizeProbe,
                         [this](const dht::RouteMsg& m) { OnSizeProbe(m); });
  dht_->SetDirectHandler([this](sim::HostId from, const sim::Message& m) {
    OnDirect(from, m);
  });
  // Fence standing transport state on every DHT ownership change. The DHT
  // node outlives us and cannot unregister listeners, so the callback
  // holds a liveness token instead of a bare `this`.
  alive_ = std::make_shared<bool>(true);
  dht_->AddEpochListener([this, alive = std::weak_ptr<bool>(alive_)]() {
    if (alive.lock()) OnMembershipEpoch();
  });
}

void PierNode::OnMembershipEpoch() {
  if (fencing_) return;  // a fence's own sends can bump the epoch again
  fencing_ = true;
  ++metrics_->epoch_fences;
  // Standing rehash queues: the pressure probe taken at each queue's fill
  // start may aim at a host that no longer owns the destination key.
  // Re-probe under the new ring; a threshold now at-or-below the queued
  // count ships immediately (the flush itself re-resolves the owner by
  // routing on the key, and the fenced route cache forces the ring path).
  for (auto it = rehash_queues_.begin(); it != rehash_queues_.end();) {
    RehashQueue& q = it->second;
    q.flush_threshold = FlushThresholdTuples(it->first.second);
    if (q.count >= q.flush_threshold) {
      it = FlushAndErase(it);
    } else {
      ++it;
    }
  }
  // Stalled credit streams: the owner whose acks would resume the stream
  // may be the casualty this epoch announces. Kick each stalled stream
  // with one credit so its next unsent chunk re-routes under the new
  // ring; the answering (possibly new) owner's ack restores normal
  // pacing. A stream whose owner actually survived just runs one chunk
  // ahead of its granted credit — bounded, and self-correcting.
  std::vector<uint64_t> stalled;
  for (const auto& [id, stream] : chunk_streams_) {
    if (stream.stall_timer != sim::kInvalidEventId) stalled.push_back(id);
  }
  for (uint64_t id : stalled) {
    auto it = chunk_streams_.find(id);
    if (it == chunk_streams_.end()) continue;  // completed by an earlier kick
    ++metrics_->epoch_stream_kicks;
    it->second.credits += 1;
    PumpStream(it);
  }
  // Pending staged queries: the epoch may announce the death of the very
  // stage owner a query is waiting on. Probe each one's progress now
  // instead of sitting out the rest of its watchdog slice — with a grace
  // window so a burst of bumps right after dispatch cannot burn the
  // failover budget before the first chunks could possibly have arrived.
  std::vector<uint64_t> waiting;
  waiting.reserve(pending_joins_.size());
  for (const auto& [qid, p] : pending_joins_) waiting.push_back(qid);
  sim::SimTime now = dht_->network()->executor()->now();
  for (uint64_t qid : waiting) {
    auto jt = pending_joins_.find(qid);
    if (jt == pending_joins_.end()) continue;  // resolved by an earlier probe
    const PendingJoin& p = jt->second;
    if (p.watchdog == sim::kInvalidEventId) continue;  // off or budget spent
    if (now - p.dispatched_at < p.watchdog_interval) continue;
    CheckJoinProgress(qid);
  }
  fencing_ = false;
}

PierNode::~PierNode() {
  // Ship everything still queued (resolving pending acks through the DHT
  // node, which outlives us) and cancel the flush timers that capture
  // `this` so none fires into a destroyed node.
  FlushPublishQueues();
  // Stall timers capture `this` too; drop the streams they watch.
  for (auto& [id, stream] : chunk_streams_) {
    if (stream.stall_timer != sim::kInvalidEventId) {
      dht_->network()->executor()->Cancel(stream.stall_timer);
    }
  }
}

void PierNode::FlushQueue(const std::pair<std::string, dht::Key>& dest,
                          RehashQueue* q) {
  if (q->flush_timer != sim::kInvalidEventId) {
    dht_->network()->executor()->Cancel(q->flush_timer);
    q->flush_timer = sim::kInvalidEventId;
  }
  if (q->count == 0) return;
  if (!dht_->joined()) {
    // The node crashed or left between enqueue and flush: the batch cannot
    // ship, and without a put timeout the acks would hang forever — fail
    // them now instead.
    for (const auto& ack : q->subscribers) {
      ack->Resolve(Status::Unavailable("node departed before flush"));
    }
  } else {
    ++metrics_->publish_messages;
    dht::DhtNode::PutCallback sub;
    if (!q->subscribers.empty()) {
      sub = [subs = std::move(q->subscribers)](Status s) {
        for (const auto& ack : subs) ack->Resolve(s);
      };
    }
    dht_->PutBatch(dest.first, dest.second, q->frames.Take(), q->count,
                   q->expiry, std::move(sub));
  }
  q->frames = BytesWriter();
  q->count = 0;
  q->subscribers.clear();
}

PierNode::QueueMap::iterator PierNode::FlushAndErase(QueueMap::iterator it) {
  FlushQueue(it->first, &it->second);
  return rehash_queues_.erase(it);
}

size_t PierNode::FlushThresholdTuples(dht::Key key) const {
  // Probe the pressure toward the queue's destination (the next routing
  // hop — the cached owner itself once the location cache is warm — is
  // the congestion a flushed PutBatch meets first). An idle path
  // means a flush costs nothing to pipeline — ship small batches for
  // latency. Every in-flight message doubles the patience, growing batches
  // toward the fixed ceiling while earlier sends drain.
  sim::DestinationLoad load = dht_->NextHopLoad(key);
  uint32_t level = std::min<uint32_t>(load.in_flight_messages, 16);
  // Floor at 1 so a zero min (misconfiguration) degrades to per-tuple
  // batching instead of flushing on every enqueue below the ceiling.
  size_t floor = std::max<size_t>(batch_options_.min_batch_tuples, 1);
  return std::min(floor << level, batch_options_.max_batch_tuples);
}

void PierNode::EnqueueRehash(const std::string& ns, dht::Key key,
                             const Tuple& tuple, size_t wire_size,
                             sim::SimTime expiry,
                             const std::shared_ptr<PublishAck>& ack) {
  auto it = rehash_queues_.try_emplace(std::make_pair(ns, key)).first;
  RehashQueue& q = it->second;
  // PutBatch carries one expiry for the whole message; a differing expiry
  // starts a fresh batch.
  if (q.count > 0 && q.expiry != expiry) FlushQueue(it->first, &q);
  q.expiry = expiry;
  if (ack) {
    bool registered = false;
    for (const auto& s : q.subscribers) {
      if (s == ack) {
        registered = true;
        break;
      }
    }
    if (!registered) {
      q.subscribers.push_back(ack);
      ++ack->remaining;
    }
  }
  if (q.count == 0) q.flush_threshold = FlushThresholdTuples(key);
  q.frames.PutVarint(wire_size);
  tuple.SerializeTo(&q.frames);
  ++q.count;
  if (q.count >= q.flush_threshold || q.frames.size() >= kMaxBatchBytes) {
    if (q.count < batch_options_.max_batch_tuples &&
        q.frames.size() < kMaxBatchBytes) {
      ++metrics_->adaptive_flushes;  // the load probe fired, not a ceiling
    }
    FlushAndErase(it);
    return;
  }
  if (q.flush_timer == sim::kInvalidEventId) {
    q.flush_timer = dht_->network()->executor()->ScheduleAfter(dht_->host(), 
        batch_options_.flush_interval,
        [this, dest = it->first]() {
          auto qit = rehash_queues_.find(dest);
          if (qit == rehash_queues_.end()) return;
          qit->second.flush_timer = sim::kInvalidEventId;
          FlushAndErase(qit);
        });
  }
}

void PierNode::PublishBatch(const Schema& schema, std::vector<Tuple> tuples,
                            sim::SimTime expiry,
                            dht::DhtNode::PutCallback callback) {
  if (tuples.empty()) {
    if (callback) callback(Status::OK());
    return;
  }
  std::shared_ptr<PublishAck> ack;
  if (callback) {
    ack = std::make_shared<PublishAck>();
    ack->callback = std::move(callback);
  }
  for (const Tuple& t : tuples) {
    ++metrics_->tuples_published;
    size_t wire = t.WireSize();
    metrics_->publish_bytes += wire;
    EnqueueRehash(schema.table_name(),
                  DhtKeyFor(schema.table_name(), t.IndexValue(schema)), t,
                  wire, expiry, ack);
  }
  if (ack) {
    ack->armed = true;
    ack->MaybeFire();  // all obligations may have failed synchronously
  }
}

void PierNode::FlushPublishQueues() {
  for (auto it = rehash_queues_.begin(); it != rehash_queues_.end();) {
    it = FlushAndErase(it);
  }
}

std::vector<Tuple> PierNode::DecodeLocalBatch(const std::string& ns,
                                              dht::Key key) {
  sim::SimTime now = dht_->network()->executor()->now();
  dht::BatchImage image = dht_->store().GetBatch(ns, key, now);
  size_t dropped = 0;
  TupleBatch batch = TupleBatch::DeserializeLossy(*image, &dropped);
  metrics_->tuples_dropped_deserialize += dropped;
  return batch.TakeTuples();
}

std::vector<Tuple> PierNode::ScanLocal(const Schema& schema,
                                       const Value& key) {
  std::vector<Tuple> out;
  dht::Key k = DhtKeyFor(schema.table_name(), key);
  for (Tuple& t : DecodeLocalBatch(schema.table_name(), k)) {
    if (t.arity() <= schema.index_field()) continue;
    if (!(t.IndexValue(schema) == key)) continue;  // 64-bit collision
    out.push_back(std::move(t));
  }
  return out;
}

void PierNode::FetchMany(const Schema& schema, std::vector<Value> keys,
                         FetchCallback callback) {
  FetchManyInternal(schema.table_name(), schema.index_field(),
                    std::move(keys), std::move(callback), /*top_level=*/true);
}

namespace {

/// Shared race state between a FetchMany primary scatter and its optional
/// hedge: the first COMPLETE answer wins and the loser is suppressed;
/// incomplete answers are stashed until every issued leg reported, then the
/// best one ships as a labeled partial.
struct HedgedFetch {
  bool done = false;
  bool hedge_sent = false;
  size_t outstanding = 0;
  sim::EventId hedge_timer = sim::kInvalidEventId;
  bool have_best = false;
  Status best_status;
  std::vector<dht::DhtNode::MultiGetItem> best_items;
};

}  // namespace

void PierNode::FetchManyInternal(const std::string& ns, size_t index_field,
                                 std::vector<Value> keys,
                                 FetchCallback callback, bool top_level) {
  if (keys.empty()) {
    callback(Status::OK(), {}, Completeness{});
    return;
  }
  ++metrics_->multi_fetches;
  // Distinct values may collide onto one ring key (64-bit hash); keep every
  // requested value per key so the collision filter admits all of them.
  auto wanted = std::make_shared<
      std::unordered_map<dht::Key, std::vector<Value>>>();
  std::vector<dht::Key> dht_keys;
  dht_keys.reserve(keys.size());
  for (Value& v : keys) {
    dht::Key k = DhtKeyFor(ns, v);
    auto [it, fresh] = wanted->try_emplace(k);
    if (fresh) dht_keys.push_back(k);
    it->second.push_back(std::move(v));
  }
  size_t requested = dht_keys.size();
  sim::Executor* exec = dht_->network()->executor();
  auto race = std::make_shared<HedgedFetch>();

  // The resolution path captures the metrics sink and executor rather than
  // `this`: the deployment-owned objects outlive any one node, so a reply
  // landing after this PierNode is gone stays safe.
  auto finish = [metrics = metrics_, exec, race, wanted, index_field,
                 requested, top_level, callback = std::move(callback)](
                    Status s,
                    std::vector<dht::DhtNode::MultiGetItem> items,
                    bool from_hedge) {
    if (race->done) return;
    --race->outstanding;
    bool complete = s.ok();
    if (!complete && race->outstanding > 0) {
      // Keep the better incomplete answer; the other leg may still win.
      if (!race->have_best || items.size() > race->best_items.size()) {
        race->have_best = true;
        race->best_status = s;
        race->best_items = std::move(items);
      }
      return;
    }
    if (!complete && race->have_best &&
        race->best_items.size() > items.size()) {
      s = race->best_status;
      items = std::move(race->best_items);
    }
    race->done = true;
    if (race->hedge_timer != sim::kInvalidEventId) {
      exec->Cancel(race->hedge_timer);
      race->hedge_timer = sim::kInvalidEventId;
    }
    Completeness c;
    if (from_hedge && complete) {
      ++metrics->hedges_won;
      c.hedges_won = 1;
    }
    // The MultiGet contract delivers one item per answered key (timeouts
    // deliver whatever was gathered), so the item count IS the coverage.
    c.exact = s.ok();
    c.coverage_fraction = std::min(
        1.0, static_cast<double>(items.size()) /
                 static_cast<double>(requested));
    if (!c.exact && top_level) ++metrics->partial_results;
    std::vector<Tuple> tuples;
    for (const auto& item : items) {
      if (!item.batch) continue;
      size_t dropped = 0;
      TupleBatch batch = TupleBatch::DeserializeLossy(*item.batch, &dropped);
      metrics->tuples_dropped_deserialize += dropped;
      auto want = wanted->find(item.key);
      if (want == wanted->end()) continue;
      for (Tuple& t : batch.TakeTuples()) {
        if (t.arity() <= index_field) continue;
        const Value& got = t.at(index_field);
        bool requested_value = false;
        for (const Value& v : want->second) {
          if (got == v) {
            requested_value = true;
            break;
          }
        }
        if (requested_value) tuples.push_back(std::move(t));
      }
    }
    callback(std::move(s), std::move(tuples), c);
  };

  // Hedge policy: probe the smoothed next-hop latency toward each owner
  // (bounded probe count) and, when the worst path looks slow, arm a
  // backup replica-preferring scatter after a quantile-style delay — it
  // fires only if the primary is still unanswered by then, and the
  // duplicate answer is suppressed by the shared race above.
  if (batch_options_.hedged_fetches) {
    sim::SimTime worst = 0;
    size_t probes = std::min<size_t>(dht_keys.size(), 16);
    for (size_t i = 0; i < probes; ++i) {
      worst =
          std::max(worst, dht_->NextHopLoad(dht_keys[i]).smoothed_latency);
    }
    if (worst > kHedgeLatencyThreshold) {
      sim::SimTime delay = std::min(
          std::max(kHedgeMinDelay, kHedgeDelayFactor * worst), kHedgeMaxDelay);
      race->hedge_timer = exec->ScheduleAfter(
          dht_->host(), delay,
          [this, race, finish, ns, hedge_keys = dht_keys]() {
            race->hedge_timer = sim::kInvalidEventId;
            if (race->done) return;
            race->hedge_sent = true;
            ++race->outstanding;
            ++metrics_->hedges_sent;
            dht::DhtNode::MultiGetOptions opts;
            opts.prefer_replica = true;
            dht_->MultiGet(
                ns, hedge_keys,
                [finish](Status s,
                         std::vector<dht::DhtNode::MultiGetItem> items) {
                  finish(std::move(s), std::move(items),
                         /*from_hedge=*/true);
                },
                opts);
          });
    }
  }

  race->outstanding = 1;
  dht_->MultiGet(
      ns, std::move(dht_keys),
      [finish](Status s, std::vector<dht::DhtNode::MultiGetItem> items) {
        finish(std::move(s), std::move(items), /*from_hedge=*/false);
      });
}

void PierNode::ProbePostingSize(const std::string& ns, const Value& key,
                                ProbeCallback callback) {
  ++metrics_->probe_messages;
  uint64_t qid = NextQid();
  PendingProbe pending;
  pending.callback = std::move(callback);
  pending.timeout = dht_->network()->executor()->ScheduleAfter(dht_->host(), 
      10 * sim::kSecond, [this, qid]() {
        auto it = pending_probes_.find(qid);
        if (it == pending_probes_.end()) return;
        ProbeCallback cb = std::move(it->second.callback);
        pending_probes_.erase(it);
        cb(Status::TimedOut("posting size probe"), 0);
      });
  pending_probes_[qid] = std::move(pending);
  auto body = std::make_shared<const SizeProbeMsg>(SizeProbeMsg{qid, ns, key});
  dht_->Route(DhtKeyFor(ns, key), kAppSizeProbe, body,
              ns.size() + key.WireSize() + 8, qid);
}

void PierNode::ExecuteStaged(std::shared_ptr<const StagedQuery> query,
                             PlanCallback callback, sim::SimTime timeout) {
  assert(!query->stages.empty());
  ++metrics_->joins_executed;
  uint64_t qid = NextQid();
  sim::Executor* exec = dht_->network()->executor();
  PendingJoin pending;
  pending.callback = std::move(callback);
  pending.cap = RowCap(query->cap, query->limit);
  pending.query = std::move(query);
  pending.deadline = exec->now() + timeout;
  pending.failovers_left = batch_options_.stage_failover_budget;
  pending.defers_left = kAdmissionDeferBudget;
  // Progress checks slice the deadline geometrically (the AttemptTimeout
  // pattern): with budget B the first check fires after timeout/(2^(B+1)-1)
  // and each re-dispatch doubles the next wait, so every failover still
  // fits inside the original deadline.
  if (pending.failovers_left > 0) {
    sim::SimTime slices =
        (sim::SimTime{1} << (pending.failovers_left + 1)) - 1;
    pending.watchdog_interval = timeout / slices;
  }
  pending.timeout = exec->ScheduleAfter(dht_->host(), timeout, [this, qid]() {
    auto it = pending_joins_.find(qid);
    if (it == pending_joins_.end()) return;
    it->second.timeout = sim::kInvalidEventId;
    // Hand over the chunk replies that did arrive — with chunked
    // streaming a timeout usually means one lost chunk, not nothing.
    ResolveJoin(qid, Status::TimedOut("distributed join"));
  });
  pending_joins_[qid] = std::move(pending);
  DispatchStage0(qid);
}

void PierNode::DispatchStage0(uint64_t qid) {
  auto it = pending_joins_.find(qid);
  if (it == pending_joins_.end()) return;
  PendingJoin& pending = it->second;
  pending.dispatched_at = dht_->network()->executor()->now();
  pending.watchdog_weight = pending.weight_received;

  JoinStageMsg msg;
  msg.qid = qid;
  msg.query = pending.query;
  msg.stage_idx = 0;
  msg.entries_image = TupleBatch().Serialize();
  msg.weight = kFullJoinWeight;
  msg.origin = dht_->info();
  msg.generation = pending.generation;
  const ExecStage& first = msg.query->stages[0];
  dht::Key target = DhtKeyFor(first.ns, first.key);
  ++metrics_->join_stage_messages;
  size_t bytes = StageMsgWireSize(msg);
  dht_->Route(target, kAppJoinStage,
              std::make_shared<const JoinStageMsg>(std::move(msg)), bytes,
              qid);
  ArmJoinWatchdog(qid);
}

void PierNode::ArmJoinWatchdog(uint64_t qid) {
  auto it = pending_joins_.find(qid);
  if (it == pending_joins_.end()) return;
  PendingJoin& pending = it->second;
  sim::Executor* exec = dht_->network()->executor();
  if (pending.watchdog != sim::kInvalidEventId) {
    exec->Cancel(pending.watchdog);
    pending.watchdog = sim::kInvalidEventId;
  }
  if (pending.watchdog_interval == 0) return;
  // A check landing at or past the deadline is pointless: the deadline
  // timer already delivers the labeled partial.
  if (exec->now() + pending.watchdog_interval >= pending.deadline) return;
  pending.watchdog =
      exec->ScheduleAfter(dht_->host(), pending.watchdog_interval,
                          [this, qid]() {
                            auto pit = pending_joins_.find(qid);
                            if (pit == pending_joins_.end()) return;
                            pit->second.watchdog = sim::kInvalidEventId;
                            CheckJoinProgress(qid);
                          });
}

void PierNode::CheckJoinProgress(uint64_t qid) {
  auto it = pending_joins_.find(qid);
  if (it == pending_joins_.end()) return;
  PendingJoin& pending = it->second;
  if (pending.weight_received > pending.watchdog_weight) {
    // Reply weight advanced since the last check: chunks are flowing.
    pending.watchdog_weight = pending.weight_received;
    ArmJoinWatchdog(qid);
    return;
  }
  if (pending.failovers_left == 0) return;  // deadline delivers the partial
  // Stalled: the dispatched chain lost its weight somewhere — a crashed
  // stage owner, a dropped chunk, an expired credit stream. Re-dispatch
  // stage 0 under a new generation: routing re-resolves against the
  // current ring, landing on the replica-holding successor when the owner
  // died. The accumulated rows are discarded along with the old
  // generation's weight so the retry cannot duplicate them; stale replies
  // from the superseded dispatch are fenced by the generation stamp.
  --pending.failovers_left;
  ++pending.generation;
  ++metrics_->stage_failovers;
  pending.completeness.failovers += 1;
  pending.rows.clear();
  pending.cap = RowCap(pending.query->cap, pending.query->limit);
  pending.weight_received = 0;
  pending.watchdog_weight = 0;
  pending.watchdog_interval *= 2;
  DispatchStage0(qid);
}

void PierNode::ResolveJoin(uint64_t qid, Status s) {
  auto it = pending_joins_.find(qid);
  if (it == pending_joins_.end()) return;
  PendingJoin& pending = it->second;
  sim::Executor* exec = dht_->network()->executor();
  if (pending.timeout != sim::kInvalidEventId) exec->Cancel(pending.timeout);
  if (pending.watchdog != sim::kInvalidEventId) {
    exec->Cancel(pending.watchdog);
  }
  Completeness c = pending.completeness;
  if (pending.weight_received < kFullJoinWeight) {
    c.exact = false;
    c.coverage_fraction *= static_cast<double>(pending.weight_received) /
                           static_cast<double>(kFullJoinWeight);
    // A shed query never started a stage; anything else short of full
    // weight means at least one stage's answers never came back.
    if (!c.shed) c.stages_failed += 1;
  }
  PlanCallback cb = std::move(pending.callback);
  std::vector<Tuple> results = std::move(pending.rows);
  pending_joins_.erase(it);
  cb(std::move(s), std::move(results), c);
}

bool PierNode::AdmitStage0(const JoinStageMsg& m) {
  sim::DestinationLoad load = dht_->network()->LoadOf(dht_->host());
  if (load.in_flight_messages <= batch_options_.admission_inflight_floor) {
    return true;  // an idle node admits everything, whatever the list size
  }
  const ExecStage& stage = m.query->stages[0];
  size_t posting =
      dht_->store().Count(stage.ns, DhtKeyFor(stage.ns, stage.key),
                          dht_->network()->executor()->now());
  uint32_t level = std::min<uint32_t>(
      static_cast<uint32_t>(load.in_flight_messages -
                            batch_options_.admission_inflight_floor),
      16);
  size_t budget = std::max(batch_options_.admission_min_entries,
                           batch_options_.admission_base_entries >> level);
  if (posting <= budget) return true;
  // Refuse: the plan would scan and ship more entries than this node's
  // pressure budget allows. The hint scales with the pressure level so a
  // hotter node pushes retries further out.
  ++metrics_->plans_shed;
  DirectEnvelope env;
  env.subtype = kPlanRefused;
  env.qid = m.qid;
  env.generation = m.generation;
  env.retry_after = batch_options_.admission_retry_after * (1 + level);
  dht_->SendDirect(m.origin.host,
                   sim::Message::Make<DirectEnvelope>(
                       dht::DhtNode::kDirectApp, "pier.refuse", 29,
                       std::move(env)));
  return false;
}

void PierNode::OnPlanRefused(const DirectEnvelope& env) {
  auto it = pending_joins_.find(env.qid);
  if (it == pending_joins_.end()) return;
  PendingJoin& pending = it->second;
  if (env.generation != pending.generation) return;  // superseded dispatch
  sim::Executor* exec = dht_->network()->executor();
  sim::SimTime retry = std::max<sim::SimTime>(env.retry_after, 1);
  if (pending.defers_left > 0 && exec->now() + retry < pending.deadline) {
    --pending.defers_left;
    ++metrics_->plans_deferred;
    pending.completeness.deferrals += 1;
    if (pending.watchdog != sim::kInvalidEventId) {
      exec->Cancel(pending.watchdog);
      pending.watchdog = sim::kInvalidEventId;
    }
    // The refused dispatch is dead at the owner, so the generation can
    // stay: at most one dispatch is ever live per generation.
    exec->ScheduleAfter(dht_->host(), retry,
                        [this, qid = env.qid, gen = pending.generation]() {
                          auto pit = pending_joins_.find(qid);
                          if (pit == pending_joins_.end()) return;
                          if (pit->second.generation != gen) return;
                          DispatchStage0(qid);
                        });
    return;
  }
  // No defer budget (or no time left to wait): an explicit labeled shed.
  pending.completeness.shed = true;
  pending.completeness.retry_after = retry;
  pending.rows.clear();
  ResolveJoin(env.qid, Status::Unavailable("plan shed by admission control"));
}

size_t PierNode::StageMsgWireSize(const JoinStageMsg& m) {
  size_t bytes = 40;  // qid, stage idx, weight, origin, limit
  if (m.stream_id != 0) bytes += 20;  // credit stream handle + producer
  for (const ExecStage& s : m.query->stages) bytes += s.WireSize();
  // The rows are a real TupleBatch image: their charged size is exact.
  bytes += m.entries_image.size();
  return bytes;
}

std::vector<Tuple> PierNode::LocalStageEntries(const ExecStage& stage) {
  std::vector<Tuple> scanned =
      DecodeLocalBatch(stage.ns, DhtKeyFor(stage.ns, stage.key));
  // One arena for all of the stage's rows, filled in place and sliced as
  // TupleBatch's decode slices its column arena.
  auto arena = std::make_shared<std::vector<Value>>();
  arena->reserve(scanned.size() * (1 + stage.payload_cols.size()));
  Tuple::Payload alias = arena;
  std::vector<Tuple> rows;
  for (const Tuple& t : scanned) {
    if (t.arity() <= stage.key_col || t.arity() <= stage.join_col) continue;
    if (!(t.at(stage.key_col) == stage.key)) continue;
    if (!stage.filter.is_true() && !stage.filter.Matches(t)) continue;
    size_t begin = arena->size();
    arena->push_back(t.at(stage.join_col));
    for (size_t c : stage.payload_cols) {
      arena->push_back(c < t.arity() ? t.at(c) : Value());
    }
    rows.push_back(Tuple::Slice(alias, begin, arena->size() - begin));
  }
  return rows;
}

void PierNode::SendJoinReply(const dht::NodeInfo& origin, uint64_t qid,
                             std::vector<Tuple> rows, uint64_t weight,
                             uint32_t generation) {
  // Stream the answer directly to the query node (bypasses the overlay).
  DirectEnvelope env;
  env.subtype = kJoinReply;
  env.qid = qid;
  env.entries_image = TupleBatch(std::move(rows)).Serialize();
  env.weight = weight;
  env.generation = generation;
  size_t bytes = 24 + env.entries_image.size();
  dht_->SendDirect(origin.host,
                   sim::Message::Make<DirectEnvelope>(
                       dht::DhtNode::kDirectApp, "pier.answer", bytes,
                       std::move(env)));
}

void PierNode::ForwardToStage(const JoinStageMsg& prev,
                              std::vector<Tuple> surviving) {
  const StagedQuery& query = *prev.query;
  size_t next_idx = prev.stage_idx + 1;
  const ExecStage& next_stage = query.stages[next_idx];
  dht::Key target = DhtKeyFor(next_stage.ns, next_stage.key);

  // Past the flush threshold, the rows stream onward in chunks so a
  // huge intermediate posting list does not ship as one message. The
  // termination weight divides across chunks (and is never created or
  // destroyed), so the query node completes exactly when every chunk's
  // reply arrived — robust to reply reordering. Unsent chunks park their
  // weight share here until credit releases them.
  size_t per_chunk = std::max<size_t>(1, batch_options_.max_stage_entries);
  size_t chunks = (surviving.size() + per_chunk - 1) / per_chunk;
  if (chunks > prev.weight) {
    // Weight exhausted (pathologically deep split chain): stop splitting
    // and ship the WHOLE list as one chunk — never truncate it.
    chunks = 1;
    per_chunk = surviving.size();
  }
  uint64_t base = prev.weight / chunks;
  uint64_t extra = prev.weight % chunks;

  ChunkStream stream;
  stream.qid = prev.qid;
  stream.query = prev.query;
  stream.stage_idx = next_idx;
  stream.origin = prev.origin;
  stream.target = target;
  stream.generation = prev.generation;
  stream.chunks.reserve(chunks);
  stream.weights.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    size_t begin = c * per_chunk;
    size_t end = std::min(surviving.size(), begin + per_chunk);
    stream.chunks.emplace_back(
        std::make_move_iterator(surviving.begin() + begin),
        std::make_move_iterator(surviving.begin() + end));
    stream.weights.push_back(base + (c == 0 ? extra : 0));
  }

  size_t window = CreditWindowChunks(target);
  if (chunks <= window) {
    // Fits in one credit window: ship everything now, no stream
    // registered, no ack chatter.
    for (size_t c = 0; c < chunks; ++c) SendChunk(&stream, c, /*stream_id=*/0);
    return;
  }
  stream.credits = window;
  uint64_t stream_id = next_stream_id_++;
  auto [it, inserted] = chunk_streams_.emplace(stream_id, std::move(stream));
  (void)inserted;
  PumpStream(it);
}

size_t PierNode::CreditWindowChunks(dht::Key target) {
  // Floor at 1, as FlushThresholdTuples floors min_batch_tuples.
  size_t base = std::max<size_t>(batch_options_.stage_credit_chunks, 1);
  // Observed service rate of the path toward the consuming stage owner
  // (the next routing hop, same probe the adaptive flush drives on). No
  // measurement yet means no trust: stay at the constant floor. Every
  // halving of observed latency below the reference earns a doubling of
  // the pipeline, up to the fixed ceiling — fast consumers drain deep
  // windows without ever being buried, slow ones keep the tight window
  // that bounds their in-flight backlog.
  sim::DestinationLoad load = dht_->NextHopLoad(target);
  if (load.smoothed_latency == 0) return base;
  size_t window = base;
  sim::SimTime lat = load.smoothed_latency;
  while (lat * 2 <= kCreditLatencyRef &&
         window < batch_options_.max_stage_credit_chunks) {
    lat *= 2;
    window = std::min(window * 2, batch_options_.max_stage_credit_chunks);
  }
  if (window > base) ++metrics_->credit_window_boosts;
  return window;
}

void PierNode::SendChunk(ChunkStream* stream, size_t idx,
                         uint64_t stream_id) {
  JoinStageMsg next;
  next.qid = stream->qid;
  next.query = stream->query;
  next.stage_idx = stream->stage_idx;
  std::vector<Tuple> rows = std::move(stream->chunks[idx]);
  metrics_->posting_entries_shipped += rows.size();
  next.entries_image = TupleBatch(std::move(rows)).Serialize();
  next.weight = stream->weights[idx];
  next.origin = stream->origin;
  next.generation = stream->generation;
  if (stream_id != 0) {
    // Paced chunks carry the stream handle so the stage owner's ack can
    // find its way back and release the next send.
    next.stream_id = stream_id;
    next.producer = dht_->info();
  }
  ++metrics_->join_stage_messages;
  size_t bytes = StageMsgWireSize(next);
  dht_->Route(stream->target, kAppJoinStage,
              std::make_shared<const JoinStageMsg>(std::move(next)), bytes,
              stream->qid);
}

void PierNode::PumpStream(std::map<uint64_t, ChunkStream>::iterator it) {
  uint64_t stream_id = it->first;
  ChunkStream& stream = it->second;
  while (stream.next < stream.chunks.size() && stream.credits > 0) {
    --stream.credits;
    SendChunk(&stream, stream.next++, stream_id);
  }
  if (stream.stall_timer != sim::kInvalidEventId) {
    dht_->network()->executor()->Cancel(stream.stall_timer);
    stream.stall_timer = sim::kInvalidEventId;
  }
  if (stream.next >= stream.chunks.size()) {
    chunk_streams_.erase(it);
    return;
  }
  // Out of credit with chunks pending: the downstream owner is backed up.
  // Pause here — its acks resume the stream — and bound the wait so a dead
  // owner cannot leak the stream forever.
  ++metrics_->credits_stalled;
  stream.stall_timer = dht_->network()->executor()->ScheduleAfter(dht_->host(), 
      kCreditStallTimeout, [this, stream_id]() {
        auto sit = chunk_streams_.find(stream_id);
        if (sit == chunk_streams_.end()) return;
        // The unsent chunks' weight never reaches the query node; its
        // timeout delivers the partial results that did arrive.
        ++metrics_->credit_streams_expired;
        chunk_streams_.erase(sit);
      });
}

void PierNode::OnJoinStage(const dht::RouteMsg& msg) {
  const auto& stage_msg = msg.body<JoinStageMsg>();
  const StagedQuery& query = *stage_msg.query;
  const ExecStage& stage = query.stages[stage_msg.stage_idx];

  // Overload shedding happens at the chain's entry point only: once a plan
  // is admitted its downstream stages carry already-spent work, and
  // dropping it there would waste more than it saves.
  if (stage_msg.stage_idx == 0 && !AdmitStage0(stage_msg)) return;

  std::vector<Tuple> local = LocalStageEntries(stage);

  std::vector<Tuple> surviving;
  if (stage_msg.stage_idx == 0) {
    surviving = std::move(local);
  } else {
    size_t dropped = 0;
    std::vector<Tuple> incoming =
        DecodeRows(stage_msg.entries_image, &dropped);
    metrics_->tuples_dropped_deserialize += dropped;
    // Symmetric hash join on the join key between the shipped rows (left)
    // and the local ones (right); the surviving row is the incoming one.
    SymmetricHashJoin shj(/*left_col=*/0, /*right_col=*/0);
    shj.Reserve(incoming.size(), local.size());
    for (Tuple& row : local) shj.InsertRight(std::move(row));
    for (Tuple& row : incoming) {
      // Duplicate local postings for the same key yield duplicate joins;
      // the chain semantics are set-based, so keep the row once.
      if (!shj.InsertLeft(row).empty()) surviving.push_back(std::move(row));
    }
  }

  // Credit-paced chunk: ack it so the producer releases the next one. The
  // grant leaves AFTER this stage's own processing (including forwarding
  // the survivors), so a backed-up stage's service time paces its
  // upstream.
  bool last = stage_msg.stage_idx + 1 == query.stages.size();
  // The cap applies to the final answer only; truncating intermediate rows
  // could drop ones that survive later stages. (Chunked last-stage
  // arrivals are capped per chunk here and again as the query node
  // accumulates them.)
  if (last) RowCap(query.cap, query.limit).Apply(&surviving);
  if (last || surviving.empty()) {
    SendJoinReply(stage_msg.origin, stage_msg.qid, std::move(surviving),
                  stage_msg.weight, stage_msg.generation);
  } else {
    ForwardToStage(stage_msg, std::move(surviving));
  }
  if (stage_msg.stream_id != 0 && stage_msg.producer.valid()) {
    DirectEnvelope env;
    env.subtype = kChunkCredit;
    env.qid = stage_msg.qid;
    env.stream_id = stage_msg.stream_id;
    env.credits = 1;
    dht_->SendDirect(stage_msg.producer.host,
                     sim::Message::Make<DirectEnvelope>(
                         dht::DhtNode::kDirectApp, "pier.credit", 21,
                         std::move(env)));
  }
}

void PierNode::OnChunkCredit(const DirectEnvelope& env) {
  auto it = chunk_streams_.find(env.stream_id);
  if (it == chunk_streams_.end()) return;  // completed or expired stream
  metrics_->credit_grants += env.credits;
  it->second.credits += env.credits;
  PumpStream(it);
}

void PierNode::OnSizeProbe(const dht::RouteMsg& msg) {
  const auto& probe = msg.body<SizeProbeMsg>();
  dht::Key k = DhtKeyFor(probe.ns, probe.key);
  size_t n =
      dht_->store().Count(probe.ns, k, dht_->network()->executor()->now());
  DirectEnvelope env;
  env.subtype = kProbeReply;
  env.qid = probe.qid;
  env.posting_size = n;
  dht_->SendDirect(msg.origin.host,
                   sim::Message::Make<DirectEnvelope>(
                       dht::DhtNode::kDirectApp, "pier.answer", 24,
                       std::move(env)));
}

void PierNode::OnDirect(sim::HostId /*from*/, const sim::Message& msg) {
  const auto& env = msg.as<DirectEnvelope>();
  if (env.subtype == kJoinReply) {
    auto it = pending_joins_.find(env.qid);
    if (it == pending_joins_.end()) return;
    PendingJoin& pending = it->second;
    // A reply from a superseded dispatch (pre-failover) must not count its
    // weight toward the current generation's termination — drop it.
    if (env.generation != pending.generation) return;
    size_t dropped = 0;
    std::vector<Tuple> rows = DecodeRows(env.entries_image, &dropped);
    metrics_->tuples_dropped_deserialize += dropped;
    // The accumulator may outlive this reply's decode arena by many chunk
    // round-trips; materialize so a few retained rows don't pin whole
    // reply batches.
    for (const Tuple& row : rows) {
      if (pending.cap.full()) break;
      Tuple kept = row.Materialize();
      if (pending.cap.Admit(kept)) pending.rows.push_back(std::move(kept));
    }
    pending.weight_received += env.weight;
    if (pending.weight_received < kFullJoinWeight) return;
    ResolveJoin(env.qid, Status::OK());
  } else if (env.subtype == kPlanRefused) {
    OnPlanRefused(env);
  } else if (env.subtype == kProbeReply) {
    auto it = pending_probes_.find(env.qid);
    if (it == pending_probes_.end()) return;
    dht_->network()->executor()->Cancel(it->second.timeout);
    ProbeCallback cb = std::move(it->second.callback);
    pending_probes_.erase(it);
    cb(Status::OK(), env.posting_size);
  } else if (env.subtype == kChunkCredit) {
    OnChunkCredit(env);
  }
}

void ExportTransportCounters(const PierMetrics& m, CounterSet* out) {
  out->Set("pier.adaptive_flushes", m.adaptive_flushes);
  out->Set("pier.credits_stalled", m.credits_stalled);
  out->Set("pier.credit_grants", m.credit_grants);
  out->Set("pier.credit_streams_expired", m.credit_streams_expired);
  out->Set("pier.credit_window_boosts", m.credit_window_boosts);
  out->Set("pier.plans_executed", m.plans_executed);
  out->Set("pier.epoch_fences", m.epoch_fences);
  out->Set("pier.epoch_stream_kicks", m.epoch_stream_kicks);
  out->Set("pier.stage_failovers", m.stage_failovers);
  out->Set("pier.hedges_sent", m.hedges_sent);
  out->Set("pier.hedges_won", m.hedges_won);
  out->Set("pier.plans_shed", m.plans_shed);
  out->Set("pier.plans_deferred", m.plans_deferred);
  out->Set("pier.partial_results", m.partial_results);
}

}  // namespace pierstack::pier
