// Simulated message-passing network with latency models, per-category
// traffic accounting, and per-destination pressure signals.
//
// All inter-node communication in the repository flows through
// Network::Send, so the bandwidth/overhead numbers the benches report
// (Figures 8, 10, 13–15; Section 7) are derived from one place — and so
// senders can probe a destination's queue occupancy (DestinationLoad) to
// adapt batching and pacing to observed load.
//
// The network schedules against the Executor seam (sim/executor.h), so the
// same Send path runs on the serial and the sharded multi-threaded backend.
// Determinism across backends is preserved by giving every send its own
// hash-derived RNG stream keyed on (seed, from, to, per-sender sequence)
// instead of one shared sequential generator: each sender's sends happen in
// canonical order on every backend, so the latency/fault draws are
// identical no matter how sends from *different* hosts interleave in
// wall-clock time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "sim/executor.h"
#include "sim/fault.h"

namespace pierstack::sim {

/// Dense id of a host attached to the network (declared in sim/executor.h).
constexpr HostId kInvalidHost = UINT32_MAX;

/// An application-level message. The payload is an app-defined struct kept
/// by shared pointer (no serialization on the sim fast path); `wire_bytes`
/// is what the message would cost on a real wire and is charged to metrics.
struct Message {
  int type = 0;                       ///< App-defined discriminator.
  size_t wire_bytes = 0;              ///< Serialized size charged to metrics.
  const char* tag = "msg";            ///< Metrics category (static string).
  std::shared_ptr<const void> body;   ///< App payload.

  /// Typed payload accessor; the caller asserts the type via `type`.
  template <typename T>
  const T& as() const {
    return *static_cast<const T*>(body.get());
  }

  /// Builds a message owning a copy of `payload`.
  template <typename T>
  static Message Make(int type, const char* tag, size_t wire_bytes,
                      T payload) {
    Message m;
    m.type = type;
    m.tag = tag;
    m.wire_bytes = wire_bytes;
    m.body = std::make_shared<const T>(std::move(payload));
    return m;
  }
};

/// Receiver interface implemented by every simulated node.
class Host {
 public:
  virtual ~Host() = default;
  /// Called when a message addressed to this host is delivered.
  virtual void HandleMessage(HostId from, const Message& msg) = 0;
};

/// Latency model interface: delay for one message. `Latency` must be
/// callable concurrently (the per-send `rng` carries all draw state).
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual SimTime Latency(HostId from, HostId to, size_t bytes, Rng* rng) = 0;
  /// Lower bound on any cross-host latency — the sharded backend's
  /// lookahead (no cross-shard message can arrive sooner than this).
  virtual SimTime MinLatency() const = 0;
};

/// Fixed one-way delay.
class ConstantLatency : public LatencyModel {
 public:
  explicit ConstantLatency(SimTime delay) : delay_(delay) {}
  SimTime Latency(HostId, HostId, size_t, Rng*) override { return delay_; }
  SimTime MinLatency() const override { return delay_; }

 private:
  SimTime delay_;
};

/// Uniform delay in [lo, hi]. Models a wide-area mix without topology.
class UniformLatency : public LatencyModel {
 public:
  UniformLatency(SimTime lo, SimTime hi) : lo_(lo), hi_(hi) {}
  SimTime Latency(HostId, HostId, size_t, Rng* rng) override;
  SimTime MinLatency() const override { return lo_; }

 private:
  SimTime lo_, hi_;
};

/// Internet-like model: each host gets a random 2-D coordinate; delay =
/// base + distance-proportional component + exponential jitter + a
/// bandwidth term per KB. Approximates the PlanetLab two-continent spread.
class CoordinateLatency : public LatencyModel {
 public:
  struct Options {
    SimTime base = 5 * kMillisecond;           ///< Per-hop fixed cost.
    SimTime max_distance = 80 * kMillisecond;  ///< Delay across the diagonal.
    SimTime jitter_mean = 5 * kMillisecond;    ///< Exponential jitter mean.
    SimTime per_kb = 2 * kMillisecond;         ///< Transfer time per KB.
  };
  CoordinateLatency(Options opts, uint64_t seed);
  SimTime Latency(HostId from, HostId to, size_t bytes, Rng* rng) override;
  SimTime MinLatency() const override { return opts_.base; }

 private:
  struct Coord {
    double x, y;
  };
  Coord CoordOf(HostId h);
  Options opts_;
  std::mutex coord_mu_;  ///< Guards the lazy fill (values stay index-determined).
  Rng coord_rng_;
  std::vector<Coord> coords_;
};

/// Traffic counters for one message category.
struct TrafficCounter {
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

/// Pressure signals for one destination host, maintained by Network::Send
/// and the delivery path. `in_flight_*` count messages accepted but not yet
/// handed to the receiver (the simulated send/receive queue occupancy);
/// `smoothed_latency` is an EWMA of observed delivery delays, including any
/// receiver processing delay. Senders probe this to adapt batch sizes and
/// pacing to observed load instead of compile-time constants.
///
/// The latency EWMA is time-decayed on read: while a destination sits idle
/// the signal halves every 5 s (a constant of the network), so one
/// historical burst cannot permanently bias adaptive flush, credit windows,
/// or congestion-aware routing. A value decayed all the way to 0 reads as
/// "unmeasured" again, which every consumer treats conservatively.
struct DestinationLoad {
  uint32_t in_flight_messages = 0;
  size_t in_flight_bytes = 0;
  /// High-water mark of in_flight_bytes since the last watermark reset —
  /// what an unpaced sender managed to pile onto this destination.
  size_t peak_in_flight_bytes = 0;
  sim::SimTime smoothed_latency = 0;  ///< EWMA; 0 until the first delivery.
};

/// Aggregated network metrics, by category tag and in total.
struct NetworkMetrics {
  TrafficCounter total;
  std::map<std::string, TrafficCounter> by_tag;
  /// Every message that failed to reach its receiver: refused sends,
  /// in-flight losses (host died mid-flight) and injected faults.
  uint64_t dropped_messages = 0;
  /// The refused-send slice of dropped_messages: the destination was
  /// already down or detached at send time (TCP connect refused — the
  /// sender-visible failure signal).
  uint64_t refused_sends = 0;

  void Record(const char* tag, size_t bytes);
  void Reset();
  /// Adds `other` into this and zeroes it (the slab fold).
  void Absorb(NetworkMetrics* other);
};

/// The simulated network: host registry + latency + delivery + metrics.
///
/// Thread-safety contract for parallel backends (sim/shard.h): Send /
/// LoadOf / metric recording may be called concurrently from worker
/// shards; topology mutations (AddHost, SetHostUp, SetProcessingDelay) and
/// metric exports (metrics(), Reset, ResetLoadWatermarks) are
/// exclusive-context only — setup code, driver events at epoch barriers,
/// or between runs.
class Network {
 public:
  /// `model` may be null, which means zero latency (pure dataflow tests —
  /// zero lookahead, so such networks only run on serial backends).
  Network(Executor* executor, std::unique_ptr<LatencyModel> model,
          uint64_t seed);

  /// Attaches a host; returns its id. The pointer must outlive the network
  /// (a host leaving for good is marked down instead).
  HostId AddHost(Host* host);

  /// Marks a host down (sends to it are refused and counted as dropped) or
  /// back up — models crashes, departures and nodes that return later.
  void SetHostUp(HostId id, bool up);
  bool IsHostUp(HostId id) const;

  /// Adds a fixed per-message receive delay at `id` — models a slow host
  /// whose handler queue drains at bounded speed. Delivery of every message
  /// addressed to it is postponed by `delay` past the wire latency.
  void SetProcessingDelay(HostId id, SimTime delay);

  /// Cheap per-destination pressure probe (see DestinationLoad). Returns a
  /// zero-value load for unknown hosts. The smoothed-latency signal is
  /// returned time-decayed.
  DestinationLoad LoadOf(HostId id) const;

  /// Quantizes LoadOf: probes read a snapshot published when a
  /// destination's signal first crosses a `quantum` boundary, not the live
  /// value. 0 (the default) keeps probes exact/continuous — the serial
  /// behavior. Parallel backends REQUIRE a quantum that is a multiple of
  /// the executor's lookahead so the snapshot every prober sees is the
  /// deterministic end-of-previous-epoch state; serial runs being
  /// fingerprint-compared against sharded runs must set the same quantum.
  void set_load_probe_quantum(SimTime quantum) {
    load_probe_quantum_ = quantum;
  }

  /// Resets every destination's peak_in_flight_bytes watermark to its
  /// current in-flight level (benches bracket a measured phase with this).
  void ResetLoadWatermarks();

  /// Sends `msg` from `from` to `to`; delivery is scheduled at
  /// now + latency. Self-sends are delivered with zero delay.
  ///
  /// Returns false — charging nothing to the byte counters — when the
  /// destination is already down or detached, which models a failed TCP
  /// connection attempt; senders use this as a failure detector. A host
  /// that goes down while the message is in flight still loses it, but
  /// silently (true is returned).
  bool Send(HostId from, HostId to, Message msg);

  /// Attaches a fault-injection plan (sim/fault.h); null detaches. The plan
  /// perturbs every subsequent Send (loss, spikes, partitions) and must
  /// outlive the network or be detached first.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }
  FaultPlan* fault_plan() { return faults_; }
  const FaultPlan* fault_plan() const { return faults_; }

  /// The event-loop seam everything network-attached schedules against.
  Executor* executor() { return executor_; }
  const Executor* executor() const { return executor_; }

  /// Lower bound on any cross-host delivery delay — what a sharded
  /// backend's lookahead must not exceed. 0 when the model is null.
  SimTime MinSendLatency() const {
    return latency_ ? latency_->MinLatency() : 0;
  }

  /// Folds the per-shard metric slabs and returns the totals. Exclusive
  /// context only (driver events, barriers, or between runs).
  NetworkMetrics& metrics();
  const NetworkMetrics& metrics() const;
  size_t host_count() const { return hosts_.size(); }

 private:
  /// One destination's pressure state. `live` absorbs every charge/settle
  /// under `mu`; `published` is the snapshot probes read when quantized
  /// (the live value as of the last quantum boundary — deterministic on
  /// every backend because all earlier-epoch mutations are barrier-ordered
  /// before any later-epoch touch).
  struct LoadSlot {
    mutable std::mutex mu;
    uint64_t epoch = 0;
    DestinationLoad live;
    /// Time of live's last EWMA update: the idle-decay clock.
    SimTime live_updated_at = 0;
    DestinationLoad published;
    SimTime published_updated_at = 0;  ///< live_updated_at as published.
  };

  /// Publishes `slot` if `now` crossed into a new quantum. Caller holds mu.
  void TouchSlot(LoadSlot* slot, SimTime now) const;
  /// Charges an accepted message against the destination's pressure
  /// signals; the returned delivery path settles it.
  void ChargeInFlight(HostId to, size_t bytes);
  void SettleInFlight(HostId to, size_t bytes, SimTime observed_delay);
  NetworkMetrics& Slab();

  Executor* executor_;
  std::unique_ptr<LatencyModel> latency_;
  const uint64_t seed_;  ///< Root of the per-send latency streams.
  std::vector<Host*> hosts_;    // index = HostId
  std::vector<bool> up_;
  std::vector<SimTime> processing_delay_;  // index = HostId
  std::vector<uint64_t> send_seq_;         // index = sender; its stream clock
  std::vector<std::unique_ptr<LoadSlot>> loads_;  // index = HostId
  SimTime load_probe_quantum_ = 0;
  /// One slab per worker shard plus one for driver context; folded into
  /// metrics_ on export.
  mutable std::vector<NetworkMetrics> metric_slabs_;
  mutable NetworkMetrics metrics_;
  FaultPlan* faults_ = nullptr;  ///< Non-owning; null = no fault injection.
};

/// Surfaces the network drop/traffic counters, the per-tag traffic as
/// "net.tag.<tag>.messages" and "net.tag.<tag>.bytes", and — when a
/// FaultPlan is attached — the injected-fault counters into a CounterSet
/// under "net." names (the cross-layer reporting currency, see
/// common/stats.h).
void ExportNetworkCounters(const Network& net, CounterSet* out);

}  // namespace pierstack::sim
