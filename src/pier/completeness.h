// Completeness accounting for distributed query results.
//
// PIER's answers are best-effort over a "dilated-reachable snapshot"
// (paper Section 4.1): a crash, straggler, or shed plan mid-query yields a
// PARTIAL answer, and the only honest contract is to label it. Every
// query-plane callback (PlanCallback / FetchCallback / SearchCallback)
// therefore carries a Completeness record alongside the status and rows:
// `exact` says whether the answer set is provably the full one,
// `coverage_fraction` estimates how much of the key arcs actually
// reported, and the counters say why coverage was lost. Partial is an
// explicit outcome, never a silent one — PierMetrics counts every
// non-exact top-level result in `partial_results`.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/executor.h"

namespace pierstack::pier {

/// How complete a query answer is, threaded from ExecStage through the
/// join/fetch callbacks up to SearchEngine results.
struct Completeness {
  /// True only when every stage and fetch leg fully reported: the answer
  /// set is the exact one the reachable snapshot defines.
  bool exact = true;
  /// Estimated fraction of the queried key arcs that reported, in [0, 1].
  /// For staged joins this is the Mattern weight fraction returned; for
  /// fetch legs the fraction of requested keys answered. Composed legs
  /// multiply (a plan is as complete as its narrowest leg).
  double coverage_fraction = 1.0;
  /// Stages whose owner never reported within the deadline (after any
  /// failover budget was spent).
  uint32_t stages_failed = 0;
  /// Stage re-dispatches to a replica set that this query performed.
  uint32_t failovers = 0;
  /// Hedged fetch legs where the backup replica answered first.
  uint32_t hedges_won = 0;
  /// Admission-control deferrals absorbed (plan retried after retry-after).
  uint32_t deferrals = 0;
  /// True when admission control refused the plan outright (no budget or
  /// no time to defer). Shed answers are empty AND labeled.
  bool shed = false;
  /// Overloaded node's back-off hint (absolute sim duration); 0 if none.
  sim::SimTime retry_after = 0;

  /// Folds another leg's completeness into this one: exactness ANDs,
  /// coverage multiplies, causes accumulate.
  void Merge(const Completeness& other) {
    exact = exact && other.exact;
    coverage_fraction *= other.coverage_fraction;
    stages_failed += other.stages_failed;
    failovers += other.failovers;
    hedges_won += other.hedges_won;
    deferrals += other.deferrals;
    shed = shed || other.shed;
    retry_after = std::max(retry_after, other.retry_after);
  }
};

}  // namespace pierstack::pier
