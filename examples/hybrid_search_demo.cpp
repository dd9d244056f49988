// Hybrid search walkthrough: why flooding fails for rare items and how the
// PIERSearch fallback repairs it (paper Sections 5 and 7).
//
//   ./build/examples/hybrid_search_demo
#include <cstdio>
#include <memory>
#include <vector>

#include "dht/builder.h"
#include "gnutella/topology.h"
#include "hybrid/hybrid_ultrapeer.h"

using namespace pierstack;

int main() {
  sim::SerialExecutor simulator;
  sim::Network network(&simulator,
                       std::make_unique<sim::ConstantLatency>(
                           25 * sim::kMillisecond),
                       11);

  // A sparse Gnutella mesh: TTL-2 floods cover only a neighborhood.
  gnutella::TopologyConfig tc;
  tc.num_ultrapeers = 100;
  tc.num_leaves = 400;
  tc.protocol.ultrapeer_degree = 3;
  tc.protocol.flood_ttl = 2;
  tc.seed = 8;
  gnutella::GnutellaNetwork gnet(&network, tc);

  // Every ultrapeer is hybrid: also a member of one Chord DHT.
  dht::DhtDeployment dht(&network, 100, dht::DhtOptions{}, 77);
  pier::PierMetrics pier_metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  std::vector<std::unique_ptr<hybrid::HybridUltrapeer>> hybrids;
  hybrid::HybridConfig hc;
  hc.gnutella_timeout = 5 * sim::kSecond;
  hc.search.strategy = piersearch::SearchStrategy::kInvertedCache;
  hc.publish.inverted_cache = true;
  for (size_t i = 0; i < 100; ++i) {
    piers.push_back(
        std::make_unique<pier::PierNode>(dht.node(i), &pier_metrics));
    hybrids.push_back(std::make_unique<hybrid::HybridUltrapeer>(
        gnet.ultrapeer(i), piers[i].get(), hc));
  }

  // Popular content everywhere; one rare file on the far side of the mesh.
  for (size_t i = 0; i < 100; ++i) {
    gnet.ultrapeer(i)->SetSharedFiles({"summer anthem radio edit.mp3"});
  }
  gnet.ultrapeer(99)->SetSharedFiles(
      {"summer anthem radio edit.mp3", "fieldrecording glacier hut 1997.mp3"});
  simulator.Run();

  // Each hybrid ultrapeer proactively publishes its rare local items —
  // here: everything that is NOT the popular anthem.
  for (auto& h : hybrids) {
    h->PublishLocalFiles([](const gnutella::KeywordIndex::Entry& e) {
      return e.filename.find("anthem") == std::string::npos;
    });
  }
  simulator.Run();

  auto query = [&](const char* text) {
    std::printf("\n== query \"%s\" from hybrid ultrapeer 0 ==\n", text);
    sim::SimTime start = simulator.now();
    size_t shown = 0;
    bool done = false;
    hybrids[0]->Query(
        text,
        [&](const hybrid::HybridHit& h) {
          if (shown < 3) {
            std::printf("  [%6.2fs] %-42s via %s (host %u)\n",
                        (h.arrival - start) / 1e6, h.filename.c_str(),
                        h.via_dht ? "PIERSearch" : "Gnutella", h.address);
          }
          ++shown;
        },
        [&]() { done = true; });
    simulator.Run();
    std::printf("  %zu result(s) total%s\n", shown,
                done ? "" : " (gnutella still streaming)");
  };

  query("summer anthem");          // popular: flooding answers instantly
  query("fieldrecording glacier"); // rare: falls back to the DHT
  query("no such file at all");    // miss everywhere: both come back empty

  const auto& stats = hybrids[0]->stats();
  std::printf("\nhybrid ultrapeer 0: %llu queries, %llu via gnutella, "
              "%llu reissued to DHT, %llu answered by DHT\n",
              (unsigned long long)stats.hybrid_queries,
              (unsigned long long)stats.gnutella_answered,
              (unsigned long long)stats.dht_reissued,
              (unsigned long long)stats.dht_answered);
  return 0;
}
