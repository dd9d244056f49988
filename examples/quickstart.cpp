// Quickstart: bring up a 64-node DHT, publish a few files through
// PIERSearch, and run keyword searches with both query plans.
//
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "dht/builder.h"
#include "piersearch/publisher.h"
#include "piersearch/search_engine.h"

using namespace pierstack;

int main() {
  // 1. A simulated wide-area network and a 64-node Chord overlay.
  sim::SerialExecutor simulator;
  sim::Network network(&simulator,
                       std::make_unique<sim::CoordinateLatency>(
                           sim::CoordinateLatency::Options{}, /*seed=*/7),
                       /*seed=*/7);
  dht::DhtOptions dht_options;
  dht::DhtDeployment dht(&network, 64, dht_options, /*seed=*/42);

  // 2. Attach PIER to every DHT node.
  pier::PierMetrics metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  for (size_t i = 0; i < dht.size(); ++i) {
    piers.push_back(std::make_unique<pier::PierNode>(dht.node(i), &metrics));
  }

  // 3. Publish a small library from node 0 (both index layouts).
  piersearch::Publisher publisher(piers[0].get());
  piersearch::PublishOptions publish;
  publish.inverted = true;
  publish.inverted_cache = true;
  const char* library[] = {
      "madonna like a prayer.mp3", "madonna vogue.mp3",
      "pink floyd dark side of the moon.mp3",
      "miles davis kind of blue.mp3", "rare zanzibar basement tape.mp3",
  };
  uint32_t address = 1000;
  for (const char* name : library) {
    publisher.PublishFile(name, 4 << 20, address++, 6346, publish);
  }
  simulator.Run();
  std::printf("published %llu tuples (%llu app bytes) for %llu files\n",
              (unsigned long long)publisher.stats().tuples_published,
              (unsigned long long)publisher.stats().tuple_bytes,
              (unsigned long long)publisher.stats().files_published);

  // 4. Search from a different node with the distributed-join plan ...
  piersearch::SearchEngine engine(piers[17].get());
  auto run_search = [&](const char* query, piersearch::SearchStrategy strat) {
    piersearch::SearchOptions options;
    options.strategy = strat;
    const char* label =
        strat == piersearch::SearchStrategy::kDistributedJoin
            ? "distributed-join"
            : "inverted-cache";
    engine.Search(query, options,
                  [&, query, label](Status s,
                                    std::vector<piersearch::SearchHit> hits,
                                    const pier::Completeness&) {
                    std::printf("\n[%s] \"%s\" -> %zu hit(s) (%s)\n", label,
                                query, hits.size(), s.ToString().c_str());
                    for (const auto& h : hits) {
                      std::printf("  %-45s %8llu bytes  host %u:%u\n",
                                  h.filename.c_str(),
                                  (unsigned long long)h.size_bytes, h.address,
                                  h.port);
                    }
                  });
    simulator.Run();
  };
  run_search("madonna", piersearch::SearchStrategy::kDistributedJoin);
  run_search("madonna prayer", piersearch::SearchStrategy::kDistributedJoin);
  // ... and the single-site InvertedCache plan.
  run_search("dark moon", piersearch::SearchStrategy::kInvertedCache);
  run_search("zanzibar", piersearch::SearchStrategy::kInvertedCache);

  std::printf("\nDHT routing: %.2f mean hops over %llu routed messages\n",
              dht.metrics().MeanHops(),
              (unsigned long long)dht.metrics().routes_delivered);
  return 0;
}
