// PIERSearch end to end: publish a corpus into the DHT, search with both
// strategies, and check recall/precision against ground truth.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "dht/builder.h"
#include "piersearch/publisher.h"
#include "piersearch/schemas.h"
#include "piersearch/search_engine.h"

namespace pierstack::piersearch {
namespace {

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  pier::PierMetrics metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;

  explicit Cluster(size_t n) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 23);
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n,
                                               dht::DhtOptions{}, 321);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(
          std::make_unique<pier::PierNode>(dht->node(i), &metrics));
    }
  }
  pier::PierNode* pier(size_t i) { return piers[i].get(); }
};

struct Corpus {
  std::vector<std::string> filenames{
      "madonna like a prayer.mp3",
      "madonna vogue.mp3",
      "beatles let it be.mp3",
      "beatles yesterday once more.mp3",
      "pink floyd dark side moon.mp3",
      "rare basement tape zanzibar.mp3",
  };
};

PublishOptions BothIndexes() {
  PublishOptions o;
  o.inverted = true;
  o.inverted_cache = true;
  return o;
}

/// Publishes the corpus from node 0, one owner address per file.
void PublishCorpus(Cluster* c, const Corpus& corpus,
                   const PublishOptions& opts) {
  Publisher pub(c->pier(0));
  for (size_t i = 0; i < corpus.filenames.size(); ++i) {
    pub.PublishFile(corpus.filenames[i], 1000 + i,
                    static_cast<uint32_t>(100 + i), 6346, opts);
  }
  c->simulator.Run();
}

std::set<std::string> SearchNames(Cluster* c, size_t from,
                                  const std::string& query,
                                  SearchOptions opts) {
  SearchEngine engine(c->pier(from));
  std::set<std::string> names;
  bool done = false;
  engine.Search(query, opts, [&](Status s, std::vector<SearchHit> hits,
                                 const pier::Completeness&) {
    done = true;
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (const auto& h : hits) names.insert(h.filename);
  });
  c->simulator.Run();
  EXPECT_TRUE(done);
  return names;
}

TEST(PierSearchTest, SingleTermFindsAllMatches) {
  Cluster c(32);
  PublishCorpus(&c, Corpus{}, BothIndexes());
  auto names = SearchNames(&c, 7, "madonna", SearchOptions{});
  EXPECT_EQ(names, (std::set<std::string>{"madonna like a prayer.mp3",
                                          "madonna vogue.mp3"}));
}

TEST(PierSearchTest, MultiTermDistributedJoin) {
  Cluster c(32);
  PublishCorpus(&c, Corpus{}, BothIndexes());
  auto names = SearchNames(&c, 3, "madonna prayer", SearchOptions{});
  EXPECT_EQ(names, (std::set<std::string>{"madonna like a prayer.mp3"}));
}

TEST(PierSearchTest, InvertedCacheMatchesDistributedJoin) {
  Cluster c(32);
  PublishCorpus(&c, Corpus{}, BothIndexes());
  for (const std::string& q :
       {std::string("beatles"), std::string("dark moon"),
        std::string("madonna vogue"), std::string("zanzibar")}) {
    SearchOptions dj;
    dj.strategy = SearchStrategy::kDistributedJoin;
    SearchOptions ic;
    ic.strategy = SearchStrategy::kInvertedCache;
    EXPECT_EQ(SearchNames(&c, 5, q, dj), SearchNames(&c, 9, q, ic)) << q;
  }
}

TEST(PierSearchTest, NoMatchesYieldsEmpty) {
  Cluster c(16);
  PublishCorpus(&c, Corpus{}, BothIndexes());
  EXPECT_TRUE(SearchNames(&c, 2, "nonexistent gibberish", SearchOptions{})
                  .empty());
  // Terms exist but never together.
  EXPECT_TRUE(SearchNames(&c, 2, "madonna beatles", SearchOptions{}).empty());
}

TEST(PierSearchTest, StopWordOnlyQueryFails) {
  Cluster c(8);
  PublishCorpus(&c, Corpus{}, BothIndexes());
  SearchEngine engine(c.pier(1));
  Status status = Status::OK();
  engine.Search("the mp3", SearchOptions{},
                [&](Status s, auto, const pier::Completeness&) { status = s; });
  c.simulator.Run();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(PierSearchTest, ResultsCarryItemFields) {
  Cluster c(16);
  PublishCorpus(&c, Corpus{}, BothIndexes());
  SearchEngine engine(c.pier(4));
  std::vector<SearchHit> hits;
  engine.Search("zanzibar", SearchOptions{}, [&](Status s, auto h,
                                                 const pier::Completeness&) {
    ASSERT_TRUE(s.ok());
    hits = std::move(h);
  });
  c.simulator.Run();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].filename, "rare basement tape zanzibar.mp3");
  EXPECT_EQ(hits[0].size_bytes, 1005u);
  EXPECT_EQ(hits[0].address, 105u);
  EXPECT_EQ(hits[0].port, 6346);
}

TEST(PierSearchTest, PerfectRecallOverPublishedCorpus) {
  // The paper's claim: "PIERSearch provides perfect recall in the absence
  // of network failures". Publish 100 files, query each by its rarest
  // pair of keywords, and expect every one found.
  Cluster c(48);
  Publisher pub(c.pier(0));
  std::vector<std::string> names;
  for (int i = 0; i < 100; ++i) {
    std::string name = "artist" + std::to_string(i) + " title" +
                       std::to_string(i) + " album" + std::to_string(i % 7) +
                       ".mp3";
    names.push_back(name);
    pub.PublishFile(name, 1000, static_cast<uint32_t>(i), 6346,
                    BothIndexes());
  }
  c.simulator.Run();
  size_t found = 0;
  for (int i = 0; i < 100; ++i) {
    std::string q = "artist" + std::to_string(i) + " title" +
                    std::to_string(i);
    auto got = SearchNames(&c, static_cast<size_t>(i % 48), q,
                           SearchOptions{});
    found += got.count(names[static_cast<size_t>(i)]);
    EXPECT_EQ(got.size(), 1u) << q;
  }
  EXPECT_EQ(found, 100u);
}

TEST(PierSearchTest, OrderByPostingSizeShipsFewerEntries) {
  // §5 / SHJ-order ablation: with one huge and one tiny posting list, the
  // optimizer must ship the tiny list, not the huge one.
  Cluster c(32);
  Publisher pub(c.pier(0));
  PublishOptions opts;  // inverted only
  for (int i = 0; i < 200; ++i) {
    pub.PublishFile("popular common track" + std::to_string(i) + ".mp3",
                    1000, static_cast<uint32_t>(i), 6346, opts);
  }
  pub.PublishFile("popular unique gemstone.mp3", 999, 7, 6346, opts);
  c.simulator.Run();

  auto run = [&](bool ordered) {
    c.metrics = pier::PierMetrics{};
    SearchOptions so;
    so.order_by_posting_size = ordered;
    so.fetch_items = false;
    // "gemstone popular": gemstone list has 1 entry, popular has 201.
    SearchEngine engine(c.pier(3));
    bool done = false;
    engine.Search("popular gemstone", so, [&](Status s, auto hits,
                                              const pier::Completeness&) {
      done = true;
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(hits.size(), 1u);
    });
    c.simulator.Run();
    EXPECT_TRUE(done);
    return c.metrics.posting_entries_shipped;
  };
  uint64_t unordered = run(false);  // ships "popular"'s 201 entries
  uint64_t ordered = run(true);     // ships "gemstone"'s 1 entry
  EXPECT_GT(unordered, 100u);
  EXPECT_LE(ordered, 2u);
}

TEST(PierSearchTest, MaxResultsCaps) {
  Cluster c(16);
  Publisher pub(c.pier(0));
  PublishOptions opts;
  for (int i = 0; i < 50; ++i) {
    pub.PublishFile("flood song take" + std::to_string(i) + ".mp3", 100,
                    static_cast<uint32_t>(i), 6346, opts);
  }
  c.simulator.Run();
  SearchOptions so;
  so.max_results = 5;
  SearchEngine engine(c.pier(2));
  size_t got = 0;
  engine.Search("flood song", so, [&](Status s, auto hits,
                                      const pier::Completeness&) {
    ASSERT_TRUE(s.ok());
    got = hits.size();
  });
  c.simulator.Run();
  EXPECT_EQ(got, 5u);
}

TEST(PierSearchTest, PublisherStatsTrackTuplesAndBytes) {
  Cluster c(8);
  Publisher pub(c.pier(0));
  PublishOptions opts;
  opts.inverted = true;
  opts.inverted_cache = false;
  pub.PublishFile("four keyword name here.mp3", 1000, 1, 6346, opts);
  // Item + 4 Inverted tuples.
  EXPECT_EQ(pub.stats().files_published, 1u);
  EXPECT_EQ(pub.stats().tuples_published, 5u);
  EXPECT_GT(pub.stats().tuple_bytes, 0u);

  Publisher pub2(c.pier(1));
  pub2.PublishFile("four keyword name here.mp3", 1000, 1, 6346,
                   BothIndexes());
  // Item + 4 Inverted + 4 InvertedCache: the cache option costs more.
  EXPECT_EQ(pub2.stats().tuples_published, 9u);
  EXPECT_GT(pub2.stats().tuple_bytes, pub.stats().tuple_bytes);
}

TEST(PierSearchTest, AnswerFetchCostsOneRoutedGetPerOwner) {
  // The owner-coalesced fetch contract, end to end: resolving an N-result
  // answer set whose Item tuples live on K distinct owners must issue
  // exactly K routed get messages.
  Cluster c(32);
  Publisher pub(c.pier(0));
  PublishOptions opts;  // inverted only
  std::vector<uint64_t> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(pub.PublishFile(
        "shared album track" + std::to_string(i) + ".mp3", 1000,
        static_cast<uint32_t>(i), 6346, opts));
  }
  c.simulator.Run();

  std::set<sim::HostId> owners;
  for (uint64_t id : ids) {
    dht::Key k = HashCombine(Fnv1a64(ItemSchema().table_name()),
                             pier::Value(id).Hash());
    owners.insert(c.dht->ExpectedOwner(k)->host());
  }
  ASSERT_GT(owners.size(), 1u);
  ASSERT_LT(owners.size(), ids.size());

  uint64_t before = c.dht->metrics().multi_gets;
  SearchEngine engine(c.pier(3));
  size_t got = 0;
  engine.Search("shared album", SearchOptions{},
                [&](Status s, auto hits, const pier::Completeness&) {
                  ASSERT_TRUE(s.ok());
                  got = hits.size();
                });
  c.simulator.Run();
  EXPECT_EQ(got, ids.size());
  EXPECT_EQ(c.dht->metrics().multi_gets - before, owners.size());
}

TEST(PierSearchTest, SoftStateExpires) {
  Cluster c(16);
  Publisher pub(c.pier(0));
  PublishOptions opts = BothIndexes();
  opts.expiry = 10 * sim::kSecond;
  pub.PublishFile("ephemeral soft state.mp3", 1, 1, 6346, opts);
  c.simulator.Run();
  EXPECT_FALSE(
      SearchNames(&c, 3, "ephemeral soft", SearchOptions{}).empty());
  c.simulator.RunUntil(20 * sim::kSecond);
  EXPECT_TRUE(SearchNames(&c, 3, "ephemeral soft", SearchOptions{}).empty());
}

}  // namespace
}  // namespace pierstack::piersearch
