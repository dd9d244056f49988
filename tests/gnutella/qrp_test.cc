// QRP-style leaf publishing: Bloom filters instead of full file lists
// (paper footnote 2).
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

  explicit Net(LeafPublishMode mode, uint64_t seed = 44,
               size_t ultrapeers = 20, size_t leaves = 80) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(10 * sim::kMillisecond), 5);
    TopologyConfig c;
    c.num_ultrapeers = ultrapeers;
    c.num_leaves = leaves;
    c.protocol.ultrapeer_degree = 4;
    c.protocol.flood_ttl = 3;
    c.protocol.leaf_publish = mode;
    c.seed = seed;
    gnutella = std::make_unique<GnutellaNetwork>(network.get(), c);
    simulator.Run();
  }

  void ShareAndPublish(GnutellaNode* leaf, std::vector<std::string> names) {
    leaf->SetSharedFiles(std::move(names));
    for (sim::HostId up : leaf->parent_ultrapeers()) leaf->RepublishTo(up);
    simulator.Run();
  }
};

TEST(QrpTest, BloomModeDoesNotIndexLeafFilesAtUltrapeer) {
  Net net(LeafPublishMode::kBloomFilter);
  auto* leaf = net.gnutella->leaf(0);
  net.ShareAndPublish(leaf, {"qrp hidden catalog.mp3"});
  for (sim::HostId up_host : leaf->parent_ultrapeers()) {
    auto* up = net.gnutella->by_host(up_host);
    EXPECT_TRUE(
        up->index().Match(ParsedQuery::Parse("hidden catalog")).empty());
  }
}

TEST(QrpTest, QueriesStillFindLeafContent) {
  Net net(LeafPublishMode::kBloomFilter);
  auto* sharer = net.gnutella->leaf(5);
  net.ShareAndPublish(sharer, {"zanzibar qrp treasure.mp3"});
  std::set<uint64_t> ids;
  auto* searcher = net.gnutella->leaf(60);
  searcher->StartQuery("zanzibar treasure",
                       [&](const std::vector<QueryResult>& rs) {
                         for (const auto& r : rs) {
                           EXPECT_EQ(r.owner, sharer->host());
                           ids.insert(r.file_id);
                         }
                       });
  net.simulator.Run();
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_GT(net.gnutella->metrics().qrp_leaf_forwards, 0u);
}

TEST(QrpTest, SearcherDoesNotReceiveItsOwnFilesBack) {
  Net net(LeafPublishMode::kBloomFilter);
  auto* leaf = net.gnutella->leaf(3);
  net.ShareAndPublish(leaf, {"own echo record.mp3"});
  size_t results = 0;
  leaf->StartQuery("own echo", [&](const std::vector<QueryResult>& rs) {
    results += rs.size();
  });
  net.simulator.Run();
  EXPECT_EQ(results, 0u);
}

TEST(QrpTest, PrimaryParentDoesNotForwardQueryBackToAsker) {
  // One ultrapeer, two leaves. The asker's own Bloom filter matches its
  // query; only the query's reverse route (back to the asker) keeps the
  // ultrapeer from forwarding the query straight back to it. The asker
  // drops its own files either way, so the result count cannot tell.
  Net net(LeafPublishMode::kBloomFilter, 44, /*ultrapeers=*/1,
          /*leaves=*/2);
  auto* asker = net.gnutella->leaf(0);
  auto* other = net.gnutella->leaf(1);
  size_t results = 0;
  auto count = [&](const std::vector<QueryResult>& rs) {
    results += rs.size();
  };
  net.ShareAndPublish(asker, {"own echo record.mp3"});
  asker->StartQuery("own echo", count);
  net.simulator.Run();
  EXPECT_EQ(net.gnutella->metrics().qrp_leaf_forwards, 0u);
  EXPECT_EQ(results, 0u);

  net.ShareAndPublish(other, {"own echo record.mp3"});
  asker->StartQuery("own echo", count);
  net.simulator.Run();
  EXPECT_EQ(net.gnutella->metrics().qrp_leaf_forwards, 1u);
  EXPECT_EQ(results, 1u);
}

TEST(QrpTest, FalsePositiveForwardsAreCounted) {
  Net net(LeafPublishMode::kBloomFilter);
  // Load a leaf with enough keywords that a saturated Bloom filter
  // produces occasional false positives for unrelated terms.
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) {
    names.push_back("library entry number" + std::to_string(i) + " fill" +
                    std::to_string(i * 7) + ".mp3");
  }
  auto* leaf = net.gnutella->leaf(2);
  net.ShareAndPublish(leaf, std::move(names));
  // Fire many queries for absent terms from a neighbor ultrapeer.
  auto* up = net.gnutella->by_host(leaf->parent_ultrapeers()[0]);
  for (int i = 0; i < 300; ++i) {
    up->StartQuery("absentterm" + std::to_string(i) + " nothing",
                   [](const auto&) {});
  }
  net.simulator.Run();
  // Any forward to the leaf for these queries is a false positive and must
  // be counted as such (there may legitimately be none if the filter is
  // sparse; assert consistency rather than a minimum).
  EXPECT_GE(net.gnutella->metrics().qrp_leaf_forwards,
            net.gnutella->metrics().qrp_false_positives);
}

TEST(QrpTest, PublishBytesSmallerThanFullList) {
  // The QRP rationale: publishing costs shrink.
  uint64_t full_bytes, bloom_bytes;
  {
    Net net(LeafPublishMode::kFullList);
    std::vector<std::string> names;
    for (int i = 0; i < 60; ++i) {
      names.push_back("some reasonably long filename number" +
                      std::to_string(i) + ".mp3");
    }
    uint64_t before = net.network->metrics().by_tag.at("gnutella.publish").bytes;
    net.ShareAndPublish(net.gnutella->leaf(1), names);
    full_bytes =
        net.network->metrics().by_tag.at("gnutella.publish").bytes - before;
  }
  {
    Net net(LeafPublishMode::kBloomFilter);
    std::vector<std::string> names;
    for (int i = 0; i < 60; ++i) {
      names.push_back("some reasonably long filename number" +
                      std::to_string(i) + ".mp3");
    }
    uint64_t before = net.network->metrics().by_tag.at("gnutella.publish").bytes;
    net.ShareAndPublish(net.gnutella->leaf(1), names);
    bloom_bytes =
        net.network->metrics().by_tag.at("gnutella.publish").bytes - before;
  }
  EXPECT_LT(bloom_bytes, full_bytes / 2);
}

TEST(QrpTest, FullListModeHasNoQrpTraffic) {
  Net net(LeafPublishMode::kFullList);
  auto* sharer = net.gnutella->leaf(5);
  net.ShareAndPublish(sharer, {"plain indexed file.mp3"});
  net.gnutella->ultrapeer(0)->StartQuery("plain indexed", [](const auto&) {});
  net.simulator.Run();
  EXPECT_EQ(net.gnutella->metrics().qrp_leaf_forwards, 0u);
}

TEST(QrpTest, RepublishReplacesBloom) {
  Net net(LeafPublishMode::kBloomFilter);
  auto* leaf = net.gnutella->leaf(7);
  net.ShareAndPublish(leaf, {"first generation content.mp3"});
  net.ShareAndPublish(leaf, {"second generation content.mp3"});
  // New library is findable.
  size_t hits = 0;
  net.gnutella->leaf(50)->StartQuery(
      "second generation",
      [&](const std::vector<QueryResult>& rs) { hits += rs.size(); });
  net.simulator.Run();
  EXPECT_EQ(hits, 1u);
}

}  // namespace
}  // namespace pierstack::gnutella
