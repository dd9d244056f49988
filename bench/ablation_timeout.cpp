// The paper's second stated future work (Section 7): "we plan to study
// the tradeoffs between the timeout and query workload" — decreasing the
// Gnutella timeout improves aggregate latency but increases the likelihood
// of issuing queries in PIER.
//
// Sweeps the hybrid timeout and reports average time-to-first-result and
// the share of queries re-issued into the DHT (the PIER query load).
//
//   ./build/bench/ablation_timeout [scale]
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/stats.h"
#include "common/table.h"
#include "dht/builder.h"
#include "gnutella/topology.h"
#include "hybrid/hybrid_ultrapeer.h"
#include "workload/trace.h"

using namespace pierstack;

int main(int argc, char** argv) {
  double scale = argc >= 2 && atof(argv[1]) > 0 ? atof(argv[1]) : 1.0;
  TablePrinter table({"timeout (s)", "avg 1st result (s)",
                      "queries -> DHT", "DHT answered", "unanswered"});
  for (double timeout_s : {5.0, 10.0, 20.0, 30.0, 45.0}) {
    workload::WorkloadConfig wc;
    wc.num_nodes = static_cast<size_t>(1000 * scale);
    wc.num_distinct_files = static_cast<size_t>(1500 * scale);
    wc.num_queries = 300;
    wc.max_replicas = wc.num_nodes / 8;
    wc.seed = 2004;
    auto trace = workload::GenerateTrace(wc);

    sim::SerialExecutor simulator;
    sim::Network network(&simulator,
                         std::make_unique<sim::UniformLatency>(
                             15 * sim::kMillisecond, 150 * sim::kMillisecond),
                         13);
    size_t num_ups = wc.num_nodes / 5;
    gnutella::TopologyConfig tc;
    tc.num_ultrapeers = num_ups;
    tc.num_leaves = wc.num_nodes - num_ups;
    tc.protocol.ultrapeer_degree = 16;
    tc.protocol.query_mode = gnutella::QueryMode::kDynamic;
    tc.protocol.dynamic.max_ttl = 2;
    tc.seed = 6;
    gnutella::GnutellaNetwork gnet(&network, tc);
    for (size_t i = 0; i < wc.num_nodes; ++i) {
      gnet.node(i)->SetSharedFiles(trace.FilenamesOfNode(i));
    }
    gnet.PublishAllFiles();
    dht::DhtDeployment dht(&network, 50, dht::DhtOptions{}, 314);
    pier::PierMetrics pm;
    hybrid::HybridConfig hc;
    hc.gnutella_timeout =
        static_cast<sim::SimTime>(timeout_s * sim::kSecond);
    std::vector<std::unique_ptr<pier::PierNode>> piers;
    std::vector<std::unique_ptr<hybrid::HybridUltrapeer>> hybrids;
    // One hybrid per DHT node, but small scales have fewer than 50
    // ultrapeers to host them.
    size_t num_hybrids = std::min<size_t>(50, gnet.num_ultrapeers());
    for (size_t i = 0; i < 50; ++i) {
      piers.push_back(std::make_unique<pier::PierNode>(dht.node(i), &pm));
      if (i >= num_hybrids) continue;
      hybrids.push_back(std::make_unique<hybrid::HybridUltrapeer>(
          gnet.ultrapeer(i), piers[i].get(), hc));
    }
    simulator.Run();
    // Every ultrapeer proactively publishes rare local items so the DHT
    // can actually answer the fallbacks (full-deployment publishing).
    for (auto& h : hybrids) {
      h->PublishLocalFiles([&](const gnutella::KeywordIndex::Entry&) {
        return true;  // budget-unconstrained for this sweep
      });
    }
    simulator.Run();

    Summary first_result;
    size_t answered = 0, tested = 0;
    for (size_t q = 0; q < trace.queries.size() && tested < 100; ++q) {
      if (trace.queries[q].total_results == 0 ||
          trace.queries[q].total_results > 30) {
        continue;
      }
      ++tested;
      sim::SimTime start = simulator.now();
      auto first = std::make_shared<sim::SimTime>(0);
      hybrids[tested % num_hybrids]->Query(
          trace.queries[q].text, [first](const hybrid::HybridHit& h) {
            if (*first == 0) *first = h.arrival;
          });
      simulator.Run();
      if (*first > 0) {
        ++answered;
        first_result.Add(double(*first - start) / sim::kSecond);
      }
    }
    uint64_t reissued = 0, dht_answered = 0;
    for (auto& h : hybrids) {
      reissued += h->stats().dht_reissued;
      dht_answered += h->stats().dht_answered;
    }
    table.AddRow({FormatF(timeout_s, 0),
                  first_result.empty() ? "-" : FormatF(first_result.mean(), 1),
                  FormatI((long long)reissued),
                  FormatI((long long)dht_answered),
                  FormatI((long long)(tested - answered))});
  }
  table.Print();
  std::printf(
      "\nreading: shrinking the timeout cuts rare-item latency toward\n"
      "timeout + DHT-lookup, but sends more queries into PIER — the exact\n"
      "tradeoff the paper deferred to future work (Section 7).\n");
  return 0;
}
