#include "gnutella/crawler.h"

#include <gtest/gtest.h>

#include <memory>

#include "gnutella/topology.h"

namespace pierstack::gnutella {
namespace {

struct Net {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<GnutellaNetwork> gnutella;

  explicit Net(size_t ups, size_t leaves, uint64_t seed = 31) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(15 * sim::kMillisecond), 8);
    TopologyConfig c;
    c.num_ultrapeers = ups;
    c.num_leaves = leaves;
    c.protocol.ultrapeer_degree = 5;
    c.seed = seed;
    gnutella = std::make_unique<GnutellaNetwork>(network.get(), c);
    simulator.Run();
  }
};

TEST(CrawlerTest, FullCrawlDiscoversAllUltrapeers) {
  Net net(50, 200);
  Crawler crawler(net.network.get(), /*parallelism=*/10);
  bool done = false;
  crawler.Start({net.gnutella->ultrapeer(0)->host()},
                [&](const CrawlGraph& g) {
                  done = true;
                  EXPECT_EQ(g.num_ultrapeers(), 50u);
                });
  net.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(crawler.finished());
}

TEST(CrawlerTest, EstimatedNetworkSizeIncludesLeaves) {
  Net net(40, 300);
  Crawler crawler(net.network.get(), 8);
  uint64_t estimate = 0;
  crawler.Start({net.gnutella->ultrapeer(0)->host()},
                [&](const CrawlGraph& g) {
                  estimate = g.EstimatedNetworkSize();
                });
  net.simulator.Run();
  // Each leaf attaches to up to 3 ultrapeers, so the leaf-slot count can
  // overcount; it must at least cover every node once.
  EXPECT_GE(estimate, 40u + 300u);
  EXPECT_LE(estimate, 40u + 3 * 300u);
}

TEST(CrawlerTest, ParallelismBoundsInFlight) {
  Net net(60, 0);
  Crawler crawler(net.network.get(), 2);
  bool done = false;
  crawler.Start({net.gnutella->ultrapeer(0)->host()},
                [&](const CrawlGraph&) { done = true; });
  net.simulator.Run();
  EXPECT_TRUE(done);  // low parallelism still completes
}

TEST(CrawlerTest, DeadSeedsAreSkipped) {
  Net net(30, 0);
  net.network->SetHostUp(net.gnutella->ultrapeer(0)->host(), false);
  Crawler crawler(net.network.get(), 4);
  bool done = false;
  crawler.Start({net.gnutella->ultrapeer(0)->host(),
                 net.gnutella->ultrapeer(1)->host()},
                [&](const CrawlGraph& g) {
                  done = true;
                  // Crawl proceeded from the live seed.
                  EXPECT_GE(g.num_ultrapeers(), 28u);
                });
  net.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(FloodExpansionTest, MonotoneAndDiminishing) {
  Net net(120, 0);
  Crawler crawler(net.network.get(), 16);
  CrawlGraph graph;
  crawler.Start({net.gnutella->ultrapeer(0)->host()},
                [&](const CrawlGraph& g) { graph = g; });
  net.simulator.Run();

  auto steps = FloodExpansion(graph, net.gnutella->ultrapeer(3)->host(), 6);
  ASSERT_EQ(steps.size(), 6u);
  for (size_t i = 1; i < steps.size(); ++i) {
    EXPECT_GE(steps[i].ultrapeers_reached, steps[i - 1].ultrapeers_reached);
    EXPECT_GE(steps[i].messages, steps[i - 1].messages);
  }
  // Figure 8's diminishing returns: once the flood saturates the graph,
  // extra messages stop adding reach.
  const auto& last = steps.back();
  EXPECT_EQ(last.ultrapeers_reached, 120u);
  // Message cost exceeds node count (duplicate deliveries are paid for).
  EXPECT_GT(last.messages, last.ultrapeers_reached);
}

TEST(FloodExpansionTest, Ttl1IsJustTheNeighbors) {
  Net net(40, 0);
  Crawler crawler(net.network.get(), 8);
  CrawlGraph graph;
  crawler.Start({net.gnutella->ultrapeer(0)->host()},
                [&](const CrawlGraph& g) { graph = g; });
  net.simulator.Run();
  sim::HostId src = net.gnutella->ultrapeer(7)->host();
  auto steps = FloodExpansion(graph, src, 1);
  size_t degree = graph.adjacency.at(src).size();
  EXPECT_EQ(steps[0].messages, degree);
  EXPECT_EQ(steps[0].ultrapeers_reached, 1u + degree);
}

TEST(FloodExpansionTest, AveragedCurveIsSmoother) {
  Net net(80, 0);
  Crawler crawler(net.network.get(), 8);
  CrawlGraph graph;
  crawler.Start({net.gnutella->ultrapeer(0)->host()},
                [&](const CrawlGraph& g) { graph = g; });
  net.simulator.Run();
  std::vector<sim::HostId> sources;
  for (size_t i = 0; i < 10; ++i) {
    sources.push_back(net.gnutella->ultrapeer(i)->host());
  }
  auto avg = FloodExpansionAveraged(graph, sources, 4);
  ASSERT_EQ(avg.size(), 4u);
  EXPECT_GT(avg[0].messages, 0u);
  EXPECT_LE(avg.back().ultrapeers_reached, 80u);
}

}  // namespace
}  // namespace pierstack::gnutella
