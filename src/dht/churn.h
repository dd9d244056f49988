// ChurnDriver: executes a scripted churn timeline against a live
// DhtDeployment.
//
// A FaultPlan (sim/fault.h) describes WHEN membership changes happen
// (flash-crowd joins, correlated mass-leaves, restarts, sustained
// background churn); this driver binds those events to a deployment — each
// kCrash picks a random live non-bootstrap node and crashes it, each kJoin
// spins up a fresh node through the dynamic join protocol, and each
// kRestart revives a previously crashed node under its ORIGINAL identity
// (same HostId, same NodeId) through DhtNode::Restart. These restarts are
// durable: the node recovers its crash-time store and remembered peers. An
// amnesia restart (empty store) is a direct DhtNode::Restart(bootstrap,
// false) call. Selection is driven by the driver's own forked RNG, so a
// fixed seed reproduces the identical membership history event-for-event —
// including which node restarts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dht/builder.h"
#include "sim/fault.h"

namespace pierstack::dht {

/// What a scripted timeline actually did (counters for gates and tests).
struct ChurnStats {
  uint64_t crashes = 0;
  uint64_t joins = 0;
  uint64_t restarts = 0;
  /// Crash events skipped because no crashable node remained (everything
  /// but the bootstrap node already dead), plus restart events skipped
  /// because no crashed node was available to revive.
  uint64_t skipped = 0;
};

class ChurnDriver {
 public:
  /// `plan` is optional; when given, executed events are also counted into
  /// its churn counters so the network's exported fault counters include
  /// membership churn. Both pointers must outlive the driver.
  ChurnDriver(DhtDeployment* deployment, uint64_t seed,
              sim::FaultPlan* plan = nullptr);

  /// Schedules every event of `timeline` on the deployment's simulator.
  /// The caller then runs the simulator; events fire at their times.
  void Schedule(const std::vector<sim::ChurnEvent>& timeline);

  const ChurnStats& stats() const { return stats_; }

 private:
  void Execute(sim::ChurnEvent::Kind kind);

  DhtDeployment* deployment_;
  Rng rng_;
  sim::FaultPlan* plan_;
  ChurnStats stats_;
  /// Deployment indices of nodes this driver crashed and has not yet
  /// restarted — the symmetric bookkeeping that lets kRestart revive a
  /// real victim instead of guessing. FIFO order is immaterial; the pick
  /// is RNG-driven for reproducibility.
  std::vector<size_t> crashed_;
};

}  // namespace pierstack::dht
