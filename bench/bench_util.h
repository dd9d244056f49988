// Shared infrastructure for the figure-reproduction benches.
//
// The measurement benches (Figures 4–7) all follow the paper's method:
// load a synthetic trace into a simulated Gnutella network, replay the
// trace's queries from a set of monitor ultrapeers (the paper's 30
// PlanetLab vantage points), and union the per-monitor result sets.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "gnutella/topology.h"
#include "workload/trace.h"

namespace pierstack::bench {

/// One simulated measurement deployment.
struct ReplaySetup {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<gnutella::GnutellaNetwork> gnutella;
  workload::Trace trace;
};

struct ReplayConfig {
  size_t num_ultrapeers = 3300;
  size_t num_leaves = 16700;
  size_t ultrapeer_degree = 24;
  uint8_t flood_ttl = 2;
  gnutella::QueryMode query_mode = gnutella::QueryMode::kFlood;
  gnutella::DynamicQueryConfig dynamic;
  size_t files_per_node_x10 = 42;  ///< distinct files ≈ nodes * 4.2 / E[R].
  size_t num_queries = 400;
  uint64_t seed = 2004;

  /// Applies a global size multiplier (command-line scaling).
  void Scale(double f);
};

/// Parses an optional leading scale argument ("0.25") from main(); returns
/// 1.0 when absent.
double ParseScaleArg(int argc, char** argv);

/// Builds the network, loads every node's library from the trace, and
/// settles leaf publishing. Node i of the network holds trace node i's
/// files (ultrapeers first, then leaves).
std::unique_ptr<ReplaySetup> BuildReplaySetup(const ReplayConfig& config);

/// Per-query statistics from a monitor replay.
struct QueryReplayStats {
  /// Result records seen by each monitor (deduplicated per monitor).
  std::vector<size_t> monitor_counts;
  /// |union of the first k monitors' result sets| for each requested k.
  std::vector<size_t> union_counts;
  /// Average replication factor over distinct filenames in the union of
  /// all monitors (the paper's Figure 4 x-axis).
  double avg_replication = 0.0;
  /// Ground-truth result count from the trace.
  uint64_t ground_truth = 0;
};

/// Replays the first `num_queries` trace queries from `monitors` ultrapeer
/// vantage points (flood mode — the paper's measurement setup).
std::vector<QueryReplayStats> RunMonitorReplay(
    ReplaySetup* setup, size_t monitors, size_t num_queries,
    const std::vector<size_t>& union_ks);

/// First-result latency observation (dynamic-querying mode, Figure 7).
struct LatencyObservation {
  size_t results = 0;              ///< Total results the query received.
  double first_result_sec = -1.0;  ///< -1 when no result ever arrived.
};

/// Replays queries from random leaves under dynamic querying, recording
/// each query's first-result latency and final result count.
std::vector<LatencyObservation> RunLatencyReplay(ReplaySetup* setup,
                                                 size_t num_queries,
                                                 uint64_t seed);

}  // namespace pierstack::bench
