#include "sim/network.h"

#include <cassert>
#include <cmath>

namespace pierstack::sim {

namespace {

// SplitMix64 step — the stream-derivation mixer. Chaining it over the
// (seed, from, to, seq) key gives every send an independent, well-mixed
// RNG stream that does not depend on how sends from other hosts interleave.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t SendStreamKey(uint64_t seed, HostId from, HostId to, uint64_t seq) {
  return Mix(Mix(Mix(seed ^ from) ^ to) ^ seq);
}

/// Half-life of the idle decay applied to each destination's smoothed
/// latency (see DestinationLoad).
constexpr SimTime kLoadDecayHalfLife = 5 * kSecond;

/// `latency` halved once per elapsed kLoadDecayHalfLife.
SimTime DecayedLatency(SimTime latency, SimTime elapsed) {
  if (latency == 0) return latency;
  SimTime halvings = elapsed / kLoadDecayHalfLife;
  if (halvings >= 64) return 0;
  return latency >> halvings;
}

}  // namespace

SimTime UniformLatency::Latency(HostId, HostId, size_t, Rng* rng) {
  if (hi_ <= lo_) return lo_;
  return lo_ + rng->NextBelow(hi_ - lo_ + 1);
}

CoordinateLatency::CoordinateLatency(Options opts, uint64_t seed)
    : opts_(opts), coord_rng_(seed) {}

CoordinateLatency::Coord CoordinateLatency::CoordOf(HostId h) {
  // Coordinates are always drawn in index order from the model's own
  // stream, so a host's coordinate is the same no matter which send (or
  // which thread) first asks for it; the lock only serializes the fill.
  std::lock_guard<std::mutex> lock(coord_mu_);
  while (coords_.size() <= h) {
    coords_.push_back(
        Coord{coord_rng_.NextDouble(), coord_rng_.NextDouble()});
  }
  return coords_[h];
}

SimTime CoordinateLatency::Latency(HostId from, HostId to, size_t bytes,
                                   Rng* rng) {
  Coord a = CoordOf(from);
  Coord b = CoordOf(to);
  double dist = std::sqrt((a.x - b.x) * (a.x - b.x) +
                          (a.y - b.y) * (a.y - b.y)) /
                std::sqrt(2.0);  // normalized to [0,1]
  SimTime delay = opts_.base;
  delay += static_cast<SimTime>(dist * static_cast<double>(opts_.max_distance));
  if (opts_.jitter_mean > 0) {
    delay += static_cast<SimTime>(
        rng->NextExponential(static_cast<double>(opts_.jitter_mean)));
  }
  delay += opts_.per_kb * (bytes / 1024);
  return delay;
}

void NetworkMetrics::Record(const char* tag, size_t bytes) {
  total.messages += 1;
  total.bytes += bytes;
  auto& c = by_tag[tag];
  c.messages += 1;
  c.bytes += bytes;
}

void NetworkMetrics::Reset() {
  total = TrafficCounter{};
  by_tag.clear();
  dropped_messages = 0;
  refused_sends = 0;
}

void NetworkMetrics::Absorb(NetworkMetrics* other) {
  total.messages += other->total.messages;
  total.bytes += other->total.bytes;
  for (const auto& [tag, c] : other->by_tag) {
    auto& mine = by_tag[tag];
    mine.messages += c.messages;
    mine.bytes += c.bytes;
  }
  dropped_messages += other->dropped_messages;
  refused_sends += other->refused_sends;
  other->Reset();
}

Network::Network(Executor* executor, std::unique_ptr<LatencyModel> model,
                 uint64_t seed)
    : executor_(executor), latency_(std::move(model)), seed_(seed) {
  assert(executor != nullptr);
  metric_slabs_.resize(executor_->shard_count() + 1);
  // On a sharded backend, exact (quantum 0) load reads would observe
  // whatever a concurrent shard last charged — nondeterministic. Default
  // to epoch-published probes on the lookahead grid so any harness that
  // lands on a sharded executor is deterministic without opting in; the
  // serial backend keeps exact reads.
  if (executor_->shard_count() > 1) {
    load_probe_quantum_ = latency_->MinLatency();
  }
}

HostId Network::AddHost(Host* host) {
  assert(host != nullptr);
  hosts_.push_back(host);
  up_.push_back(true);
  processing_delay_.push_back(0);
  send_seq_.push_back(0);
  loads_.push_back(std::make_unique<LoadSlot>());
  return static_cast<HostId>(hosts_.size() - 1);
}

void Network::SetProcessingDelay(HostId id, SimTime delay) {
  assert(id < processing_delay_.size());
  processing_delay_[id] = delay;
}

void Network::TouchSlot(LoadSlot* slot, SimTime now) const {
  if (load_probe_quantum_ == 0) return;
  uint64_t epoch = now / load_probe_quantum_;
  if (epoch != slot->epoch) {
    // First touch past a quantum boundary: publish the live state as of
    // the boundary. Every pre-boundary mutation is barrier-ordered before
    // this touch and no post-boundary mutation has been applied yet (each
    // one publishes-then-applies under mu), so the snapshot is identical
    // on serial and sharded backends.
    slot->published = slot->live;
    slot->published_updated_at = slot->live_updated_at;
    slot->epoch = epoch;
  }
}

DestinationLoad Network::LoadOf(HostId id) const {
  if (id >= loads_.size()) return DestinationLoad{};
  LoadSlot* slot = loads_[id].get();
  SimTime now = executor_->now();
  DestinationLoad l;
  SimTime updated_at = 0;
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    TouchSlot(slot, now);
    bool exact = load_probe_quantum_ == 0;
    l = exact ? slot->live : slot->published;
    updated_at = exact ? slot->live_updated_at : slot->published_updated_at;
  }
  // Idle decay applied on read.
  l.smoothed_latency = DecayedLatency(l.smoothed_latency, now - updated_at);
  return l;
}

void Network::ResetLoadWatermarks() {
  for (auto& slot : loads_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->live.peak_in_flight_bytes = slot->live.in_flight_bytes;
    slot->published.peak_in_flight_bytes = slot->published.in_flight_bytes;
  }
}

void Network::ChargeInFlight(HostId to, size_t bytes) {
  LoadSlot* slot = loads_[to].get();
  std::lock_guard<std::mutex> lock(slot->mu);
  TouchSlot(slot, executor_->now());
  DestinationLoad& l = slot->live;
  l.in_flight_messages += 1;
  l.in_flight_bytes += bytes;
  if (l.in_flight_bytes > l.peak_in_flight_bytes) {
    l.peak_in_flight_bytes = l.in_flight_bytes;
  }
}

void Network::SettleInFlight(HostId to, size_t bytes,
                             SimTime observed_delay) {
  LoadSlot* slot = loads_[to].get();
  std::lock_guard<std::mutex> lock(slot->mu);
  SimTime now = executor_->now();
  TouchSlot(slot, now);
  DestinationLoad& l = slot->live;
  assert(l.in_flight_messages > 0 && l.in_flight_bytes >= bytes);
  l.in_flight_messages -= 1;
  l.in_flight_bytes -= bytes;
  // Decay the stored history to now first, then fold in the observation:
  // EWMA with 1/8 gain, seeded by the first (or post-idle) observation.
  SimTime history =
      DecayedLatency(l.smoothed_latency, now - slot->live_updated_at);
  l.smoothed_latency =
      history == 0 ? observed_delay : (7 * history + observed_delay) / 8;
  slot->live_updated_at = now;
}

void Network::SetHostUp(HostId id, bool up) {
  assert(id < hosts_.size());
  up_[id] = up;
}

bool Network::IsHostUp(HostId id) const {
  return id < up_.size() && up_[id];
}

NetworkMetrics& Network::Slab() {
  return metric_slabs_[executor_->CurrentSlab()];
}

NetworkMetrics& Network::metrics() {
  for (NetworkMetrics& slab : metric_slabs_) metrics_.Absorb(&slab);
  return metrics_;
}

const NetworkMetrics& Network::metrics() const {
  for (NetworkMetrics& slab : metric_slabs_) metrics_.Absorb(&slab);
  return metrics_;
}

bool Network::Send(HostId from, HostId to, Message msg) {
  if (!IsHostUp(to)) {
    NetworkMetrics& m = Slab();
    ++m.dropped_messages;
    ++m.refused_sends;
    return false;
  }
  Slab().Record(msg.tag, msg.wire_bytes);
  // This send's private draw stream: the per-sender sequence number only
  // ever advances from the sender's own execution context, so the key —
  // hence every latency/fault draw — is backend-independent.
  assert(from < send_seq_.size());
  uint64_t seq = send_seq_[from]++;
  // Injected faults (sim/fault.h): the message left the sender (charged to
  // traffic above, success returned below), but a loss or a partition edge
  // silently discards it before the destination's queue ever sees it. The
  // plan derives its decisions from its own seed and this send's key, so
  // fault injection still never perturbs the latency stream.
  if (faults_ != nullptr &&
      faults_->ShouldDrop(from, to, seq, executor_->now())) {
    ++Slab().dropped_messages;
    return true;
  }
  SimTime delay = 0;
  if (latency_ && from != to) {
    Rng rng(SendStreamKey(seed_, from, to, seq));
    delay = latency_->Latency(from, to, msg.wire_bytes, &rng);
  }
  if (faults_ != nullptr) delay += faults_->ExtraLatency(from, to, seq);
  delay += processing_delay_[to];
  // Fail-slow windows (sim/fault.h): keyed on the send time — the sender's
  // own clock — so the penalty decision is backend-independent too.
  if (faults_ != nullptr) {
    delay += faults_->ProcessingPenalty(to, executor_->now());
  }
  ChargeInFlight(to, msg.wire_bytes);
  executor_->ScheduleAt(
      to, executor_->now() + delay,
      [this, from, to, delay, m = std::move(msg)]() {
        // The message leaves the destination's queue whether or not the
        // host survived to receive it.
        SettleInFlight(to, m.wire_bytes, delay);
        // Re-check liveness at delivery time: the host may have left while
        // the message was in flight.
        if (!IsHostUp(to)) {
          ++Slab().dropped_messages;
          return;
        }
        hosts_[to]->HandleMessage(from, m);
      });
  return true;
}

void ExportNetworkCounters(const Network& net, CounterSet* out) {
  const NetworkMetrics& m = net.metrics();
  out->Set("net.messages", m.total.messages);
  out->Set("net.bytes", m.total.bytes);
  out->Set("net.dropped_messages", m.dropped_messages);
  out->Set("net.refused_sends", m.refused_sends);
  for (const auto& [tag, c] : m.by_tag) {
    out->Set("net.tag." + tag + ".messages", c.messages);
    out->Set("net.tag." + tag + ".bytes", c.bytes);
  }
  if (const FaultPlan* plan = net.fault_plan()) {
    const FaultCounters& f = plan->counters();
    out->Set("net.fault_loss_drops", f.loss_drops);
    out->Set("net.fault_latency_spikes", f.latency_spikes);
    out->Set("net.fault_partition_drops", f.partition_drops);
    out->Set("net.fault_churn_crashes", f.churn_crashes);
    out->Set("net.fault_churn_joins", f.churn_joins);
    out->Set("net.fault_churn_restarts", f.churn_restarts);
    out->Set("net.fault_slow_deliveries", f.slow_deliveries);
    out->Set("net.fault_injected_total", f.Total());
  }
}

}  // namespace pierstack::sim
