// Model-checking style test: random put/get sequences against an
// in-memory reference oracle, across overlays and network sizes — plus
// a structural RingOracle pass over the final ring, so the same run
// that proves data consistency also proves the overlay the data lives
// on satisfies every ring invariant.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "dht/builder.h"
#include "dht/ring_oracle.h"

namespace pierstack::dht {
namespace {

struct OracleParam {
  OverlayKind kind;
  size_t nodes;
  uint64_t seed;
};

class DhtOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(DhtOracleTest, RandomOpsMatchReference) {
  const OracleParam param = GetParam();
  sim::SerialExecutor simulator;
  sim::Network network(&simulator,
                       std::make_unique<sim::UniformLatency>(
                           sim::kMillisecond, 40 * sim::kMillisecond),
                       param.seed);
  DhtOptions opts;
  opts.overlay = param.kind;
  DhtDeployment dht(&network, param.nodes, opts, param.seed + 1);

  Rng rng(param.seed + 2);
  // Reference: (ns, key) -> multiset of values.
  std::map<std::pair<std::string, Key>, std::multiset<std::string>> oracle;
  std::vector<std::pair<std::string, Key>> known_keys;

  const std::string namespaces[] = {"item", "inverted", "temp"};
  size_t checks = 0;
  for (int op = 0; op < 300; ++op) {
    size_t src = static_cast<size_t>(rng.NextBelow(param.nodes));
    double dice = rng.NextDouble();
    if (dice < 0.5 || known_keys.empty()) {
      // Put a fresh or existing key.
      const std::string& ns = namespaces[rng.NextBelow(3)];
      Key k = rng.NextBernoulli(0.3) && !known_keys.empty()
                  ? known_keys[rng.NextBelow(known_keys.size())].second
                  : rng.Next();
      std::string value = "v" + std::to_string(rng.Next() % 1000000);
      dht.node(src)->Put(ns, k, std::vector<uint8_t>(value.begin(),
                                                     value.end()));
      simulator.Run();
      oracle[{ns, k}].insert(value);
      known_keys.emplace_back(ns, k);
    } else {
      // Get a known key and compare with the oracle.
      auto [ns, k] = known_keys[rng.NextBelow(known_keys.size())];
      std::multiset<std::string> expected = oracle[{ns, k}];
      bool called = false;
      dht.node(src)->Get(
          ns, k, [&](Status s, std::vector<std::vector<uint8_t>> values) {
            called = true;
            ASSERT_TRUE(s.ok());
            std::multiset<std::string> got;
            for (const auto& v : values) got.emplace(v.begin(), v.end());
            EXPECT_EQ(got, expected);
          });
      simulator.Run();
      ASSERT_TRUE(called);
      ++checks;
    }
  }
  EXPECT_GT(checks, 50u);

  // The ring the workload ran on must itself be structurally sound, and
  // every key the reference oracle knows must live where the ring says.
  RingOracle ring_oracle(&dht);
  for (const auto& [ns, k] : known_keys) ring_oracle.TrackKey(ns, k);
  RingOracleReport report = ring_oracle.Check(simulator.now());
  EXPECT_TRUE(report.clean()) << report.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DhtOracleTest,
    ::testing::Values(OracleParam{OverlayKind::kChord, 5, 1},
                      OracleParam{OverlayKind::kChord, 40, 2},
                      OracleParam{OverlayKind::kChord, 150, 3},
                      OracleParam{OverlayKind::kBamboo, 5, 4},
                      OracleParam{OverlayKind::kBamboo, 40, 5},
                      OracleParam{OverlayKind::kBamboo, 150, 6}));

TEST(DeterminismTest, IdenticalRunsProduceIdenticalMetrics) {
  auto run = [](uint64_t seed) {
    sim::SerialExecutor simulator;
    sim::Network network(&simulator,
                         std::make_unique<sim::UniformLatency>(
                             sim::kMillisecond, 30 * sim::kMillisecond),
                         seed);
    DhtDeployment dht(&network, 32, DhtOptions{}, seed);
    Rng rng(seed + 9);
    for (int i = 0; i < 100; ++i) {
      size_t src = static_cast<size_t>(rng.NextBelow(32));
      dht.node(src)->Put("ns", rng.Next(), {1, 2, 3});
    }
    simulator.Run();
    return std::make_tuple(network.metrics().total.messages,
                           network.metrics().total.bytes,
                           dht.metrics().total_hops,
                           simulator.events_executed());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), std::get<0>(run(43)));
}

}  // namespace
}  // namespace pierstack::dht
