// Ablation: Chord vs Bamboo under the same PIER workload.
//
// The paper runs on Bamboo but only relies on O(log N) routing; this
// ablation verifies the choice of overlay does not change PIERSearch's
// behavior, only its constant factors (hops per lookup, maintenance shape).
//
//   ./build/bench/ablation_overlay [scale]
#include <cstdio>
#include <memory>

#include "common/stats.h"
#include "common/table.h"
#include "dht/builder.h"

using namespace pierstack;

namespace {

struct OverlayStats {
  double mean_hops;
  uint32_t max_hops;
  double route_bytes_per_put;
  double get_roundtrip_ms;
};

OverlayStats Measure(dht::OverlayKind kind, size_t n) {
  sim::SerialExecutor simulator;
  sim::Network network(&simulator,
                       std::make_unique<sim::ConstantLatency>(
                           25 * sim::kMillisecond),
                       19);
  dht::DhtOptions opts;
  opts.overlay = kind;
  dht::DhtDeployment dht(&network, n, opts, 2718);

  Rng rng(1);
  const size_t kOps = 500;
  std::vector<dht::Key> keys;
  for (size_t i = 0; i < kOps; ++i) {
    dht::Key k = rng.Next();
    keys.push_back(k);
    size_t src = static_cast<size_t>(rng.NextBelow(n));
    dht.node(src)->Put("bench", k, {1, 2, 3, 4, 5, 6, 7, 8});
  }
  simulator.Run();
  uint64_t route_bytes = network.metrics().by_tag.at("dht.route").bytes;

  Summary get_latency;
  for (size_t i = 0; i < kOps; ++i) {
    size_t src = static_cast<size_t>(rng.NextBelow(n));
    sim::SimTime start = simulator.now();
    bool* done = new bool(false);
    dht.node(src)->Get("bench", keys[i],
                       [&, start, done](Status s, auto values) {
                         if (s.ok() && !values.empty()) {
                           get_latency.Add(
                               double(simulator.now() - start) /
                               sim::kMillisecond);
                         }
                         *done = true;
                       });
    simulator.Run();
    delete done;
  }

  OverlayStats out;
  out.mean_hops = dht.metrics().MeanHops();
  out.max_hops = dht.metrics().max_hops;
  out.route_bytes_per_put = double(route_bytes) / kOps;
  out.get_roundtrip_ms = get_latency.empty() ? 0 : get_latency.mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = argc >= 2 && atof(argv[1]) > 0 ? atof(argv[1]) : 1.0;
  TablePrinter table({"overlay", "nodes", "mean hops", "max hops",
                      "route bytes/put", "get RTT (ms, 25ms links)"});
  for (size_t n : {64, 256, 1024}) {
    size_t nodes = static_cast<size_t>(n * scale);
    if (nodes < 8) nodes = 8;
    auto chord = Measure(dht::OverlayKind::kChord, nodes);
    auto bamboo = Measure(dht::OverlayKind::kBamboo, nodes);
    table.AddRow({"Chord", FormatI((long long)nodes),
                  FormatF(chord.mean_hops, 2), FormatI(chord.max_hops),
                  FormatF(chord.route_bytes_per_put, 0),
                  FormatF(chord.get_roundtrip_ms, 0)});
    table.AddRow({"Bamboo", FormatI((long long)nodes),
                  FormatF(bamboo.mean_hops, 2), FormatI(bamboo.max_hops),
                  FormatF(bamboo.route_bytes_per_put, 0),
                  FormatF(bamboo.get_roundtrip_ms, 0)});
  }
  table.Print();
  std::printf(
      "\nexpectation: Bamboo's base-16 prefix routing takes ~1/4 the hops\n"
      "of Chord's binary fingers (log16 vs 0.5*log2); both are O(log N),\n"
      "which is all PIER assumes (paper Section 2).\n");
  return 0;
}
