// GnutellaNetwork topology construction invariants.
#include "gnutella/topology.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>

namespace pierstack::gnutella {
namespace {

struct Net {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<GnutellaNetwork> gnutella;

  explicit Net(TopologyConfig config) {
    network = std::make_unique<sim::Network>(&simulator, nullptr, 1);
    gnutella = std::make_unique<GnutellaNetwork>(network.get(), config);
    simulator.Run();
  }
};

TopologyConfig Config(size_t ups, size_t leaves, size_t degree,
                      uint64_t seed = 1) {
  TopologyConfig c;
  c.num_ultrapeers = ups;
  c.num_leaves = leaves;
  c.protocol.ultrapeer_degree = degree;
  c.seed = seed;
  return c;
}

TEST(TopologyTest, EdgesAreSymmetric) {
  Net net(Config(50, 0, 6));
  std::set<std::pair<sim::HostId, sim::HostId>> edges;
  for (size_t i = 0; i < 50; ++i) {
    auto* up = net.gnutella->ultrapeer(i);
    for (sim::HostId n : up->ultrapeer_neighbors()) {
      edges.insert({up->host(), n});
    }
  }
  for (const auto& [a, b] : edges) {
    EXPECT_TRUE(edges.count({b, a})) << a << "<->" << b;
  }
}

TEST(TopologyTest, NoSelfLoopsOrParallelEdges) {
  Net net(Config(40, 0, 8));
  for (size_t i = 0; i < 40; ++i) {
    auto* up = net.gnutella->ultrapeer(i);
    std::set<sim::HostId> distinct(up->ultrapeer_neighbors().begin(),
                                   up->ultrapeer_neighbors().end());
    EXPECT_EQ(distinct.size(), up->ultrapeer_neighbors().size());
    EXPECT_FALSE(distinct.count(up->host()));
  }
}

TEST(TopologyTest, UltrapeerMeshIsConnected) {
  for (uint64_t seed : {1ull, 7ull, 99ull}) {
    Net net(Config(100, 0, 4, seed));
    std::set<sim::HostId> visited;
    std::deque<GnutellaNode*> frontier{net.gnutella->ultrapeer(0)};
    visited.insert(net.gnutella->ultrapeer(0)->host());
    while (!frontier.empty()) {
      auto* up = frontier.front();
      frontier.pop_front();
      for (sim::HostId n : up->ultrapeer_neighbors()) {
        if (visited.insert(n).second) {
          frontier.push_back(net.gnutella->by_host(n));
        }
      }
    }
    EXPECT_EQ(visited.size(), 100u) << "seed " << seed;
  }
}

TEST(TopologyTest, LeafCapacityRespected) {
  auto config = Config(10, 400, 4);
  config.protocol.max_leaves_per_ultrapeer = 30;
  config.protocol.ultrapeers_per_leaf = 1;
  Net net(config);
  // 400 leaves over 10 UPs at slot budget 30*1: some leaves overflow via
  // the fallback, but no ultrapeer should be wildly over budget.
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_LE(net.gnutella->ultrapeer(i)->leaves().size(), 70u);
  }
}

TEST(TopologyTest, LeafParentsAreDistinctUltrapeers) {
  Net net(Config(30, 300, 6));
  for (size_t i = 0; i < 300; ++i) {
    auto* leaf = net.gnutella->leaf(i);
    std::set<sim::HostId> parents(leaf->parent_ultrapeers().begin(),
                                  leaf->parent_ultrapeers().end());
    EXPECT_EQ(parents.size(), leaf->parent_ultrapeers().size());
    for (sim::HostId p : parents) {
      auto* up = net.gnutella->by_host(p);
      ASSERT_NE(up, nullptr);
      EXPECT_EQ(up->role(), Role::kUltrapeer);
    }
  }
}

TEST(TopologyTest, ByHostResolvesEveryNode) {
  Net net(Config(20, 80, 4));
  for (size_t i = 0; i < net.gnutella->size(); ++i) {
    auto* node = net.gnutella->node(i);
    EXPECT_EQ(net.gnutella->by_host(node->host()), node);
  }
  EXPECT_EQ(net.gnutella->by_host(sim::HostId{100000}), nullptr);
}

TEST(TopologyTest, DeterministicForSeed) {
  Net a(Config(30, 60, 5, 42));
  Net b(Config(30, 60, 5, 42));
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.gnutella->ultrapeer(i)->ultrapeer_neighbors(),
              b.gnutella->ultrapeer(i)->ultrapeer_neighbors());
  }
  for (size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(a.gnutella->leaf(i)->parent_ultrapeers(),
              b.gnutella->leaf(i)->parent_ultrapeers());
  }
}

TEST(TopologyTest, SingleUltrapeerNetworkWorks) {
  Net net(Config(1, 10, 8));
  EXPECT_EQ(net.gnutella->ultrapeer(0)->leaves().size(), 10u);
  // Query from a leaf still matches the ultrapeer-side index.
  net.gnutella->leaf(0)->SetSharedFiles({"solo network file.mp3"});
  net.gnutella->leaf(0)->RepublishTo(
      net.gnutella->leaf(0)->parent_ultrapeers()[0]);
  net.simulator.Run();
  size_t hits = 0;
  net.gnutella->leaf(5)->StartQuery(
      "solo network",
      [&](const std::vector<QueryResult>& rs) { hits += rs.size(); });
  net.simulator.Run();
  EXPECT_EQ(hits, 1u);
}

}  // namespace
}  // namespace pierstack::gnutella
