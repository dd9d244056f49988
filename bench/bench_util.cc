#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "common/hashing.h"

namespace pierstack::bench {

void ReplayConfig::Scale(double f) {
  auto scale = [&](size_t v) {
    return static_cast<size_t>(std::max(1.0, v * f));
  };
  num_ultrapeers = scale(num_ultrapeers);
  num_leaves = scale(num_leaves);
  num_queries = scale(num_queries);
}

double ParseScaleArg(int argc, char** argv) {
  if (argc >= 2) {
    double f = std::atof(argv[1]);
    if (f > 0) return f;
  }
  return 1.0;
}

std::unique_ptr<ReplaySetup> BuildReplaySetup(const ReplayConfig& config) {
  auto setup = std::make_unique<ReplaySetup>();

  size_t total_nodes = config.num_ultrapeers + config.num_leaves;
  workload::WorkloadConfig wc;
  wc.num_nodes = total_nodes;
  wc.num_distinct_files =
      std::max<size_t>(100, total_nodes * config.files_per_node_x10 / 31);
  wc.vocab_size = std::max<size_t>(600, wc.num_distinct_files / 3);
  wc.num_queries = config.num_queries;
  wc.seed = config.seed;
  // The measurement workload (live user queries the monitors replayed)
  // skews toward popular content more than the uniform trace defaults.
  // Single hot terms stay allowed: two-popular-term conjunctions often
  // have no co-occurring file, which inflates the zero-result floor well
  // past the paper's 6%.
  wc.query_file_bias = 1.3;
  wc.query_popular_terms = 0.17;
  wc.query_from_file = 0.80;
  setup->trace = workload::GenerateTrace(wc);

  setup->network = std::make_unique<sim::Network>(
      &setup->simulator,
      std::make_unique<sim::UniformLatency>(15 * sim::kMillisecond,
                                            150 * sim::kMillisecond),
      config.seed);

  gnutella::TopologyConfig tc;
  tc.num_ultrapeers = config.num_ultrapeers;
  tc.num_leaves = config.num_leaves;
  tc.protocol.ultrapeer_degree = config.ultrapeer_degree;
  tc.protocol.flood_ttl = config.flood_ttl;
  tc.protocol.query_mode = config.query_mode;
  tc.protocol.dynamic = config.dynamic;
  tc.seed = config.seed + 1;
  setup->gnutella = std::make_unique<gnutella::GnutellaNetwork>(
      setup->network.get(), tc);

  for (size_t i = 0; i < total_nodes; ++i) {
    setup->gnutella->node(i)->SetSharedFiles(setup->trace.FilenamesOfNode(i));
  }
  setup->gnutella->PublishAllFiles();
  setup->simulator.Run();
  return setup;
}

std::vector<QueryReplayStats> RunMonitorReplay(
    ReplaySetup* setup, size_t monitors, size_t num_queries,
    const std::vector<size_t>& union_ks) {
  num_queries = std::min(num_queries, setup->trace.queries.size());
  monitors = std::min(monitors, setup->gnutella->num_ultrapeers());

  // Compact result record: the copy id plus the filename hash (replication
  // factors group copies by filename).
  struct Record {
    uint64_t file_id;
    uint64_t name_hash;
  };
  std::vector<std::vector<std::vector<Record>>> seen(num_queries);
  for (auto& per_monitor : seen) per_monitor.resize(monitors);

  for (size_t q = 0; q < num_queries; ++q) {
    const auto& query = setup->trace.queries[q];
    for (size_t m = 0; m < monitors; ++m) {
      auto* records = &seen[q][m];
      setup->gnutella->ultrapeer(m)->StartQuery(
          query.text, [records](const std::vector<gnutella::QueryResult>& rs) {
            for (const auto& r : rs) {
              records->push_back(Record{r.file_id, Fnv1a64(r.filename)});
            }
          });
    }
  }
  setup->simulator.Run();

  std::vector<QueryReplayStats> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    QueryReplayStats& stats = out[q];
    stats.ground_truth = setup->trace.queries[q].total_results;
    stats.monitor_counts.resize(monitors);
    std::unordered_set<uint64_t> union_ids;
    std::unordered_map<uint64_t, size_t> copies_per_name;
    size_t next_k = 0;
    stats.union_counts.resize(union_ks.size(), 0);
    for (size_t m = 0; m < monitors; ++m) {
      stats.monitor_counts[m] = seen[q][m].size();
      for (const auto& rec : seen[q][m]) {
        if (union_ids.insert(rec.file_id).second) {
          ++copies_per_name[rec.name_hash];
        }
      }
      while (next_k < union_ks.size() && union_ks[next_k] == m + 1) {
        stats.union_counts[next_k] = union_ids.size();
        ++next_k;
      }
    }
    while (next_k < union_ks.size()) {
      stats.union_counts[next_k] = union_ids.size();
      ++next_k;
    }
    if (!copies_per_name.empty()) {
      double total = 0;
      for (const auto& [h, c] : copies_per_name) {
        total += static_cast<double>(c);
      }
      stats.avg_replication = total / copies_per_name.size();
    }
  }
  return out;
}

std::vector<LatencyObservation> RunLatencyReplay(ReplaySetup* setup,
                                                 size_t num_queries,
                                                 uint64_t seed) {
  num_queries = std::min(num_queries, setup->trace.queries.size());
  Rng rng(seed);
  struct QueryState {
    sim::SimTime started = 0;
    sim::SimTime first = 0;
    size_t results = 0;
  };
  auto states = std::make_shared<std::vector<QueryState>>(num_queries);

  // Stagger starts so the dynamic-query timers don't synchronize.
  sim::SimTime at = setup->simulator.now();
  for (size_t q = 0; q < num_queries; ++q) {
    at += 200 * sim::kMillisecond;
    size_t leaf_idx = static_cast<size_t>(
        rng.NextBelow(setup->gnutella->num_leaves()));
    const std::string& text = setup->trace.queries[q].text;
    setup->simulator.ScheduleAt(
        sim::kDriverHost, at, [setup, states, q, leaf_idx, text]() {
          auto* leaf = setup->gnutella->leaf(leaf_idx);
          (*states)[q].started = setup->simulator.now();
          leaf->StartQuery(
              text,
              [setup, states, q](const std::vector<gnutella::QueryResult>& rs) {
                QueryState& st = (*states)[q];
                if (st.results == 0) st.first = setup->simulator.now();
                st.results += rs.size();
              });
        });
  }
  setup->simulator.Run();

  std::vector<LatencyObservation> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    const QueryState& st = (*states)[q];
    out[q].results = st.results;
    out[q].first_result_sec =
        st.results > 0
            ? static_cast<double>(st.first - st.started) / sim::kSecond
            : -1.0;
  }
  return out;
}

}  // namespace pierstack::bench
