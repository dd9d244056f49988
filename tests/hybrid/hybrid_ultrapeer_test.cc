// HybridUltrapeer integration: Gnutella + DHT + PIERSearch on one stack.
#include "hybrid/hybrid_ultrapeer.h"

#include <gtest/gtest.h>

#include <memory>

#include "dht/builder.h"
#include "gnutella/topology.h"

namespace pierstack::hybrid {
namespace {

/// A small world: 20 ultrapeers (all hybrid) in both a Gnutella mesh and a
/// DHT, with a sparse topology so rare content is out of flooding reach.
struct World {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<gnutella::GnutellaNetwork> gnutella;
  std::unique_ptr<dht::DhtDeployment> dht;
  pier::PierMetrics pier_metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  std::vector<std::unique_ptr<HybridUltrapeer>> hybrids;

  explicit World(HybridConfig hc = HybridConfig{}) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(20 * sim::kMillisecond), 41);
    gnutella::TopologyConfig tc;
    tc.num_ultrapeers = 20;
    tc.num_leaves = 60;
    tc.protocol.ultrapeer_degree = 2;  // sparse: floods stay local
    tc.protocol.flood_ttl = 1;
    tc.protocol.query_mode = gnutella::QueryMode::kFlood;
    tc.seed = 3;
    gnutella = std::make_unique<gnutella::GnutellaNetwork>(network.get(), tc);
    dht = std::make_unique<dht::DhtDeployment>(network.get(), 20,
                                               dht::DhtOptions{}, 555);
    hc.gnutella_timeout = 2 * sim::kSecond;
    for (size_t i = 0; i < 20; ++i) {
      piers.push_back(
          std::make_unique<pier::PierNode>(dht->node(i), &pier_metrics));
      hybrids.push_back(std::make_unique<HybridUltrapeer>(
          gnutella->ultrapeer(i), piers[i].get(), hc));
    }
    simulator.Run();
  }
};

TEST(HybridUltrapeerTest, FallbackFindsRareItemGnutellaMisses) {
  World w;
  // A rare file lives on ultrapeer 19; the sparse TTL-1 flood from UP 0
  // cannot reach it.
  w.gnutella->ultrapeer(19)->SetSharedFiles({"obscure vinyl rip.mp3"});
  // Proactive publishing (full-deployment style): UP 19 indexes its rare
  // local file into the DHT.
  size_t published = w.hybrids[19]->PublishLocalFiles(
      [](const gnutella::KeywordIndex::Entry&) { return true; });
  EXPECT_EQ(published, 1u);
  w.simulator.Run();

  std::vector<HybridHit> hits;
  bool done = false;
  w.hybrids[0]->Query("obscure vinyl",
                      [&](const HybridHit& h) { hits.push_back(h); },
                      [&]() { done = true; });
  w.simulator.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(hits[0].via_dht);
  EXPECT_EQ(hits[0].filename, "obscure vinyl rip.mp3");
  EXPECT_EQ(w.hybrids[0]->stats().dht_reissued, 1u);
  EXPECT_EQ(w.hybrids[0]->stats().dht_answered, 1u);
}

TEST(HybridUltrapeerTest, GnutellaAnswersPopularWithoutFallback) {
  World w;
  // Every ultrapeer shares the popular file: the local match alone answers.
  for (size_t i = 0; i < 20; ++i) {
    w.gnutella->ultrapeer(i)->SetSharedFiles({"big radio hit.mp3"});
  }
  std::vector<HybridHit> hits;
  bool done = false;
  w.hybrids[0]->Query("radio hit",
                      [&](const HybridHit& h) { hits.push_back(h); },
                      [&]() { done = true; });
  w.simulator.Run();
  ASSERT_TRUE(done);
  EXPECT_GE(hits.size(), 1u);
  for (const auto& h : hits) EXPECT_FALSE(h.via_dht);
  EXPECT_EQ(w.hybrids[0]->stats().gnutella_answered, 1u);
  EXPECT_EQ(w.hybrids[0]->stats().dht_reissued, 0u);
}

TEST(HybridUltrapeerTest, FallbackLatencyIsTimeoutPlusDht) {
  World w;
  w.gnutella->ultrapeer(19)->SetSharedFiles({"hidden gem track.mp3"});
  w.hybrids[19]->PublishLocalFiles(
      [](const gnutella::KeywordIndex::Entry&) { return true; });
  w.simulator.Run();
  sim::SimTime start = w.simulator.now();
  sim::SimTime first = 0;
  w.hybrids[0]->Query("hidden gem", [&](const HybridHit& h) {
    if (first == 0) first = h.arrival;
  });
  w.simulator.Run();
  ASSERT_GT(first, 0u);
  sim::SimTime latency = first - start;
  // Latency = 2s Gnutella timeout + a few DHT round trips; well under the
  // pure-Gnutella "never" and above the timeout floor.
  EXPECT_GE(latency, 2 * sim::kSecond);
  EXPECT_LE(latency, 4 * sim::kSecond);
}

TEST(HybridUltrapeerTest, QrsSnoopingPublishesRareResults) {
  HybridConfig hc;
  hc.qrs_threshold = 20;
  World w(hc);
  // UP 1 shares a rare file; UP 0 is its direct neighbor, so a flood from
  // UP 0 finds it and the result batch passes through UP 0's proxy.
  sim::HostId up0 = w.gnutella->ultrapeer(0)->host();
  gnutella::GnutellaNode* neighbor = nullptr;
  size_t neighbor_idx = 0;
  for (size_t i = 1; i < 20; ++i) {
    auto& ns = w.gnutella->ultrapeer(i)->ultrapeer_neighbors();
    if (std::find(ns.begin(), ns.end(), up0) != ns.end()) {
      neighbor = w.gnutella->ultrapeer(i);
      neighbor_idx = i;
      break;
    }
  }
  ASSERT_NE(neighbor, nullptr) << "topology seed must give UP0 a neighbor";
  (void)neighbor_idx;
  neighbor->SetSharedFiles({"snooped rarity bootleg.mp3"});

  std::vector<HybridHit> hits;
  w.hybrids[0]->Query("snooped rarity",
                      [&](const HybridHit& h) { hits.push_back(h); });
  w.simulator.Run();
  ASSERT_GE(hits.size(), 1u);
  EXPECT_FALSE(hits[0].via_dht);
  // The proxy saw a result belonging to a small result set → published it.
  EXPECT_GE(w.hybrids[0]->stats().rare_results_published, 1u);

  // Now ANY hybrid ultrapeer can find it via the DHT even where flooding
  // fails (e.g. UP 10, far away in the sparse mesh).
  std::vector<HybridHit> far_hits;
  w.hybrids[10]->Query("snooped rarity",
                       [&](const HybridHit& h) { far_hits.push_back(h); });
  w.simulator.Run();
  if (!far_hits.empty()) {
    EXPECT_EQ(far_hits[0].filename, "snooped rarity bootleg.mp3");
  }
}

TEST(HybridUltrapeerTest, PublishLocalFilesRespectsPredicate) {
  World w;
  w.gnutella->ultrapeer(5)->SetSharedFiles(
      {"keep this rarity.mp3", "skip that hit.mp3"});
  size_t n = w.hybrids[5]->PublishLocalFiles(
      [](const gnutella::KeywordIndex::Entry& e) {
        return e.filename.find("rarity") != std::string::npos;
      });
  EXPECT_EQ(n, 1u);
  // Republishing the same file is deduplicated.
  size_t again = w.hybrids[5]->PublishLocalFiles(
      [](const gnutella::KeywordIndex::Entry&) { return true; });
  EXPECT_EQ(again, 1u);  // only the previously skipped file
}

TEST(HybridUltrapeerTest, StatsCountQueries) {
  World w;
  w.hybrids[2]->Query("no such thing anywhere", [](const HybridHit&) {});
  w.simulator.Run();
  EXPECT_EQ(w.hybrids[2]->stats().hybrid_queries, 1u);
  EXPECT_EQ(w.hybrids[2]->stats().dht_reissued, 1u);
  EXPECT_EQ(w.hybrids[2]->stats().dht_answered, 0u);
}

}  // namespace
}  // namespace pierstack::hybrid
