// Flooding, duplicate suppression, reverse-path hits, leaf publishing.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "gnutella/topology.h"

namespace pierstack::gnutella {
namespace {

struct Net {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<GnutellaNetwork> gnutella;

  explicit Net(TopologyConfig config) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(10 * sim::kMillisecond), 5);
    gnutella = std::make_unique<GnutellaNetwork>(network.get(), config);
    simulator.Run();  // settle leaf publishes
  }
};

TopologyConfig SmallConfig() {
  TopologyConfig c;
  c.num_ultrapeers = 30;
  c.num_leaves = 120;
  c.protocol.ultrapeer_degree = 4;
  c.protocol.flood_ttl = 2;
  c.protocol.query_mode = QueryMode::kFlood;
  c.seed = 11;
  return c;
}

TEST(FloodingTest, TopologyRespectsConfig) {
  Net net(SmallConfig());
  EXPECT_EQ(net.gnutella->num_ultrapeers(), 30u);
  EXPECT_EQ(net.gnutella->num_leaves(), 120u);
  for (size_t i = 0; i < 30; ++i) {
    auto* up = net.gnutella->ultrapeer(i);
    EXPECT_GE(up->ultrapeer_neighbors().size(), 1u);
    EXPECT_LE(up->ultrapeer_neighbors().size(), 7u);  // degree + overflow
  }
  for (size_t i = 0; i < 120; ++i) {
    auto* leaf = net.gnutella->leaf(i);
    EXPECT_GE(leaf->parent_ultrapeers().size(), 1u);
    EXPECT_LE(leaf->parent_ultrapeers().size(), 3u);
  }
}

TEST(FloodingTest, LeafFilesIndexedAtParents) {
  auto config = SmallConfig();
  Net net(config);
  auto* leaf = net.gnutella->leaf(0);
  leaf->SetSharedFiles({"unique zanzibar melody.mp3"});
  for (sim::HostId up : leaf->parent_ultrapeers()) {
    leaf->RepublishTo(up);
  }
  net.simulator.Run();
  for (sim::HostId up_host : leaf->parent_ultrapeers()) {
    auto* up = net.gnutella->by_host(up_host);
    ASSERT_NE(up, nullptr);
    auto m = up->index().Match(ParsedQuery::Parse("zanzibar"));
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0]->owner, leaf->host());
  }
}

TEST(FloodingTest, QueryFindsFileWithinHorizon) {
  // TTL 3 over a degree-4 mesh of 30 ultrapeers covers the whole graph,
  // so the query deterministically reaches the sharer's ultrapeers.
  auto cfg = SmallConfig();
  cfg.protocol.flood_ttl = 3;
  Net net(cfg);
  // Give a file to a leaf, query from another leaf attached elsewhere.
  auto* sharer = net.gnutella->leaf(3);
  sharer->SetSharedFiles({"gorgonzola sunset boulevard.mp3"});
  for (sim::HostId up : sharer->parent_ultrapeers()) sharer->RepublishTo(up);
  net.simulator.Run();

  std::vector<QueryResult> got;
  auto* searcher = net.gnutella->leaf(50);
  searcher->StartQuery("gorgonzola sunset",
                       [&](const std::vector<QueryResult>& rs) {
                         got.insert(got.end(), rs.begin(), rs.end());
                       });
  net.simulator.Run();
  // Within a 30-UP network, TTL-2 flooding from any UP usually reaches the
  // sharer's ultrapeers; at minimum the result, if any, must be correct.
  for (const auto& r : got) {
    EXPECT_EQ(r.filename, "gorgonzola sunset boulevard.mp3");
    EXPECT_EQ(r.owner, sharer->host());
  }
  EXPECT_LE(got.size(), 3u);  // at most one per parent UP, deduped by id
  EXPECT_GE(got.size(), 1u);
}

TEST(FloodingTest, ResultsAreDedupedByFileId) {
  // The same leaf file indexed at 3 parent UPs must reach the searcher as
  // one result per distinct fileID (replica), not once per UP answering.
  Net net(SmallConfig());
  auto* sharer = net.gnutella->leaf(7);
  sharer->SetSharedFiles({"xylophone quartet rare.mp3"});
  for (sim::HostId up : sharer->parent_ultrapeers()) sharer->RepublishTo(up);
  net.simulator.Run();
  std::set<uint64_t> ids;
  size_t records = 0;
  auto* searcher = net.gnutella->leaf(80);
  searcher->StartQuery("xylophone quartet",
                       [&](const std::vector<QueryResult>& rs) {
                         for (const auto& r : rs) {
                           ids.insert(r.file_id);
                           ++records;
                         }
                       });
  net.simulator.Run();
  EXPECT_EQ(ids.size(), records);  // no duplicates delivered
  EXPECT_LE(ids.size(), 1u);
}

TEST(FloodingTest, DuplicateQueriesSuppressed) {
  Net net(SmallConfig());
  net.gnutella->metrics() = GnutellaMetrics{};
  auto* up = net.gnutella->ultrapeer(0);
  up->StartQuery("nonexistent terms here", [](const auto&) {});
  net.simulator.Run();
  // With degree ~4 and TTL 2 over 30 UPs there must be redundant paths.
  EXPECT_GT(net.gnutella->metrics().duplicate_queries, 0u);
  // And no query loops forever: message count is bounded well below
  // edges * TTL explosion.
  EXPECT_LT(net.gnutella->metrics().query_messages, 1000u);
}

TEST(FloodingTest, TtlBoundsPropagation) {
  auto config = SmallConfig();
  config.protocol.flood_ttl = 1;
  Net net(config);
  net.gnutella->metrics() = GnutellaMetrics{};
  auto* up = net.gnutella->ultrapeer(0);
  size_t degree = up->ultrapeer_neighbors().size();
  up->StartQuery("whatever terms", [](const auto&) {});
  net.simulator.Run();
  // TTL 1: exactly one message per neighbor, no forwarding.
  EXPECT_EQ(net.gnutella->metrics().query_messages, degree);
}

TEST(FloodingTest, UltrapeerAnswersForItsOwnFiles) {
  Net net(SmallConfig());
  auto* up = net.gnutella->ultrapeer(5);
  up->SetSharedFiles({"ultrapeer owned treasure.mp3"});
  std::vector<QueryResult> got;
  // Query from a neighboring ultrapeer.
  auto* other = net.gnutella->ultrapeer(6);
  other->StartQuery("treasure ultrapeer",
                    [&](const std::vector<QueryResult>& rs) {
                      got.insert(got.end(), rs.begin(), rs.end());
                    });
  net.simulator.Run();
  ASSERT_GE(got.size(), 1u);
  EXPECT_EQ(got[0].owner, up->host());
}

TEST(FloodingTest, BrowseHostReturnsSharedFiles) {
  Net net(SmallConfig());
  auto* leaf = net.gnutella->leaf(1);
  leaf->SetSharedFiles({"file one alpha.mp3", "file two beta.mp3"});
  std::vector<SharedFile> browsed;
  net.gnutella->ultrapeer(0)->BrowseHost(
      leaf->host(), [&](Status s, std::vector<SharedFile> files) {
        ASSERT_TRUE(s.ok());
        browsed = std::move(files);
      });
  net.simulator.Run();
  EXPECT_EQ(browsed.size(), 2u);
}

TEST(FloodingTest, BrowseHostToDeadHostFails) {
  Net net(SmallConfig());
  auto* leaf = net.gnutella->leaf(1);
  net.network->SetHostUp(leaf->host(), false);
  bool failed = false;
  net.gnutella->ultrapeer(0)->BrowseHost(
      leaf->host(), [&](Status s, std::vector<SharedFile>) {
        failed = s.IsUnavailable();
      });
  net.simulator.Run();
  EXPECT_TRUE(failed);
}

TEST(FloodingTest, QueryWireChargeIsTheText) {
  // However a query body is represented in memory, each query message on
  // the wire (leaf query, flood or dynamic hop, QRP leaf forward) is
  // charged the Gnutella header and minimum speed plus the query text as
  // typed, separators, case and stop words included.
  const std::string text = "Gorgonzola - the SUNSET_boulevard";
  struct Mode {
    QueryMode query;
    LeafPublishMode publish;
  };
  for (Mode mode : {Mode{QueryMode::kFlood, LeafPublishMode::kFullList},
                    Mode{QueryMode::kDynamic, LeafPublishMode::kFullList},
                    Mode{QueryMode::kFlood, LeafPublishMode::kBloomFilter}}) {
    auto cfg = SmallConfig();
    cfg.protocol.flood_ttl = 3;
    cfg.protocol.query_mode = mode.query;
    cfg.protocol.leaf_publish = mode.publish;
    Net net(cfg);
    auto* sharer = net.gnutella->leaf(3);
    sharer->SetSharedFiles({"gorgonzola sunset boulevard.mp3"});
    for (sim::HostId up : sharer->parent_ultrapeers()) sharer->RepublishTo(up);
    net.simulator.Run();
    size_t results = 0;
    net.gnutella->leaf(50)->StartQuery(
        text, [&](const std::vector<QueryResult>& rs) {
          results += rs.size();
        });
    net.simulator.Run();
    EXPECT_EQ(results, 1u);
    const auto& metrics = net.gnutella->metrics();
    if (mode.publish == LeafPublishMode::kBloomFilter) {
      EXPECT_GT(metrics.qrp_leaf_forwards, 0u);
    }
    // The leaf's query to its ultrapeer, the hops and the leaf forwards.
    const sim::TrafficCounter& wire =
        net.network->metrics().by_tag.at("gnutella.query");
    EXPECT_EQ(wire.messages,
              1 + metrics.query_messages + metrics.qrp_leaf_forwards);
    EXPECT_EQ(wire.bytes, wire.messages * (25 + text.size()));
  }
}

TEST(FloodingTest, MetricsCountQueriesAndResults) {
  Net net(SmallConfig());
  auto* sharer = net.gnutella->ultrapeer(2);
  sharer->SetSharedFiles({"countable result record.mp3"});
  net.gnutella->metrics() = GnutellaMetrics{};
  net.gnutella->ultrapeer(3)->StartQuery("countable record",
                                         [](const auto&) {});
  net.simulator.Run();
  EXPECT_EQ(net.gnutella->metrics().queries_started, 1u);
  EXPECT_GT(net.gnutella->metrics().query_messages, 0u);
  EXPECT_GE(net.gnutella->metrics().results_delivered, 1u);
}

}  // namespace
}  // namespace pierstack::gnutella
