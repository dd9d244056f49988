// Scriptable fault injection for sim::Network — the churn harness.
//
// A FaultPlan attached to a Network perturbs the message layer the way a
// deployed overlay is perturbed (paper Section 7 runs PIER under PlanetLab
// flakiness; the churn benches reproduce that pressure deterministically):
//
//  * probabilistic message loss: each accepted send is dropped in flight
//    with probability `message_loss` (the sender sees success, the receiver
//    sees nothing — a lost packet, not a refused connection),
//  * latency spikes: with probability `spike_probability` a message is
//    delayed by an extra `spike_delay` on top of the latency model,
//  * partitions: PartitionWindows assign hosts to groups for a scheduled
//    interval; messages crossing a group boundary are silently dropped
//    until the window's heal time — a network split, during which
//    refused-send failure detection is blind and only proactive liveness
//    probing notices the missing peers. A window activates and heals purely
//    by comparing each send's timestamp against it, so a scheduled split
//    needs no driver event at all and is identical on every Executor
//    backend. Splits that heal one group at a time are windows with
//    different heal times. A window may also be asymmetric (one-way): only
//    the listed (from-group, to-group) directions drop, modeling a link
//    that fails in one direction,
//  * scheduled crash/join/restart churn: deterministic event schedules
//    (flash-crowd join, correlated mass-leave, sustained events/min churn,
//    crash-then-restart) built here and executed by an overlay-level
//    driver (dht::ChurnDriver), which counts each executed event back into
//    the plan. A restart re-animates a previously crashed node under its
//    original identity (dht::DhtNode::Restart),
//  * fail-slow windows: a host's message processing degrades by a fixed
//    extra delay for a scheduled interval — the straggler that still
//    answers, just late (the gray failure crashes cannot model). Applied
//    to every message addressed to the slow host whose SEND falls inside
//    the window, so the decision depends only on the sender's own clock
//    and is identical on every Executor backend.
//
// All randomness derives from the plan's own seed, so fault decisions
// never perturb the network's latency stream: a run with a FaultPlan is a
// pure function of (network seed, plan seed, handlers). Each send's
// loss/spike decision is drawn from a stream keyed on (plan seed, sender,
// destination, the network's per-sender send sequence) — stateless, so the
// decision is the same on every Executor backend no matter how sends from
// different hosts interleave (see sim/network.h). Partition-window
// membership is keyed purely on the sender's clock, the same contract as
// fail-slow windows. Counters are exported via common/stats
// (ExportNetworkCounters in sim/network.h).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "sim/executor.h"

namespace pierstack::sim {

/// One scheduled membership change. The sim layer only fixes WHEN and WHAT
/// KIND; the overlay driver picks the victim/joiner deterministically.
struct ChurnEvent {
  enum Kind {
    kCrash,
    kJoin,
    /// Re-animate a previously crashed node under its ORIGINAL identity
    /// (same HostId, same ring key) — the reboot the crash/join pair
    /// cannot model. The driver decides durable vs amnesia recovery.
    kRestart,
  };
  SimTime time = 0;
  Kind kind = kCrash;
};

/// Injected-fault counters (exported as net.fault_* via common/stats).
/// Relaxed atomics: the hooks run concurrently on shard workers; totals
/// are exact at barriers/export, which is the only place they are read.
struct FaultCounters {
  RelaxedCounter loss_drops;       ///< Messages lost to probabilistic loss.
  RelaxedCounter latency_spikes;   ///< Messages delayed by a spike.
  RelaxedCounter partition_drops;  ///< Messages dropped at a partition edge.
  RelaxedCounter churn_crashes;    ///< Executed scheduled crash events.
  RelaxedCounter churn_joins;      ///< Executed scheduled join events.
  RelaxedCounter churn_restarts;   ///< Executed scheduled restart events.
  RelaxedCounter slow_deliveries;  ///< Messages delayed by a fail-slow window.

  uint64_t Total() const {
    return loss_drops + latency_spikes + partition_drops + churn_crashes +
           churn_joins + churn_restarts + slow_deliveries;
  }
};

class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed) : seed_(seed) {}

  /// Per-message in-flight loss probability in [0, 1].
  void set_message_loss(double p) { message_loss_ = p; }

  /// With probability `p`, a message is delayed by `extra` past the model.
  void set_latency_spike(double p, SimTime extra) {
    spike_probability_ = p;
    spike_delay_ = extra;
  }

  /// A scheduled network split: `groups` takes effect for sends whose
  /// timestamp falls in [start, heal_time) and heals by itself — no driver
  /// event needed, and the decision depends only on the sender's clock
  /// (backend-independent, like fail-slow windows). Hosts absent from
  /// `groups` are group 0. With `one_way` empty the split is symmetric
  /// (any group mismatch drops); otherwise ONLY the listed
  /// (from-group, to-group) directions drop — an asymmetric split where
  /// e.g. the island can still hear the mainland but not answer it.
  struct PartitionWindow {
    std::map<HostId, uint32_t> groups;
    SimTime start = 0;
    SimTime heal_time = 0;
    std::vector<std::pair<uint32_t, uint32_t>> one_way;
  };

  /// Schedules a partition window. Setup/driver context only: mutate
  /// before the run or at barriers.
  void AddPartitionWindow(PartitionWindow window);

  /// Schedules a fail-slow window: every message addressed to `host` that
  /// is SENT during [start, start + duration) is delayed by an extra
  /// `extra` past the latency model — a straggling receiver, not a dead
  /// one. Windows are additive when they overlap. Setup/driver context
  /// only: mutate before the run or at barriers.
  void AddFailSlow(HostId host, SimTime start, SimTime duration,
                   SimTime extra);

  // --- Hooks consumed by Network::Send (self-sends are never faulted) ----
  // `send_seq` is the network's per-sender sequence number for this send —
  // the stream key making each decision order-independent. `now` is the
  // SENDER's clock at the send, the key partition/fail-slow windows are
  // evaluated against.

  /// True when this send must be lost in flight (loss or partition edge).
  /// Counts the injected fault.
  bool ShouldDrop(HostId from, HostId to, uint64_t send_seq, SimTime now);

  /// Extra delivery delay for this send (0 when no spike fires). Counts.
  SimTime ExtraLatency(HostId from, HostId to, uint64_t send_seq);

  /// Extra processing delay for a message addressed to `to` sent at `now`
  /// (0 outside every fail-slow window). Deterministic — keyed purely on
  /// the send time, no RNG draw. Counts each slowed delivery.
  SimTime ProcessingPenalty(HostId to, SimTime now);

  /// The overlay churn driver reports each executed scheduled event.
  void CountChurn(ChurnEvent::Kind kind);

  const FaultCounters& counters() const { return counters_; }

  // --- Deterministic churn schedule builders -----------------------------

  /// `joins` nodes arriving within [start, start + window) at even spacing
  /// — the flash-crowd arrival burst.
  static std::vector<ChurnEvent> FlashCrowdJoin(SimTime start, size_t joins,
                                                SimTime window);

  /// `crashes` simultaneous failures at `at` — correlated mass-leave.
  static std::vector<ChurnEvent> MassLeave(SimTime at, size_t crashes);

  /// `count` simultaneous crashes at `crash_at`, each rebooted at
  /// `restart_at` — the correlated power-cycle (crash preserving durable
  /// state, restart under the original identity).
  static std::vector<ChurnEvent> CrashRestart(SimTime crash_at,
                                              SimTime restart_at,
                                              size_t count);

  /// Alternating join/crash events (population-preserving) at
  /// `events_per_minute`, exponentially spaced from `seed`, covering
  /// [start, start + duration).
  static std::vector<ChurnEvent> SustainedChurn(SimTime start,
                                                SimTime duration,
                                                double events_per_minute,
                                                uint64_t seed);

 private:
  /// Whether a send from group `from` to group `to` crosses this window's
  /// split (direction-aware for one-way windows).
  static bool CrossesSplit(const PartitionWindow& w, uint32_t from,
                           uint32_t to);

  const uint64_t seed_;  ///< Root of the per-send decision streams.
  double message_loss_ = 0.0;
  double spike_probability_ = 0.0;
  SimTime spike_delay_ = 0;
  std::vector<PartitionWindow> windows_;  ///< Scheduled timed splits.
  /// One scheduled degradation interval for a fail-slow host.
  struct FailSlowWindow {
    SimTime start = 0;
    SimTime end = 0;
    SimTime extra = 0;
  };
  std::map<HostId, std::vector<FailSlowWindow>> fail_slow_;
  FaultCounters counters_;
};

}  // namespace pierstack::sim
