// The strategy-to-plan compilation contract: kDistributedJoin and
// kInvertedCache searches execute through PierNode::ExecutePlan, and must
// return exactly the corpus files matching the query at frozen message
// counts — plus the deadline of the plans' item fetch.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/tokenizer.h"
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
    // Message-count suite: pin the classic routing path so the owner
    // location cache (warmed by whichever query runs first) cannot skew
    // the frozen per-query message counts.
    dht::DhtOptions dopts;
    dopts.routing_policy = dht::RoutingPolicyKind::kClassicChord;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n, dopts, 321);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(
          std::make_unique<pier::PierNode>(dht->node(i), &metrics));
    }
  }
  pier::PierNode* pier(size_t i) { return piers[i].get(); }
};

/// The parity corpus.
const char* const kCorpus[] = {
    "madonna like a prayer.mp3",  "madonna vogue.mp3",
    "beatles let it be.mp3",      "beatles yesterday once more.mp3",
    "pink floyd dark side moon.mp3", "rare basement tape zanzibar.mp3",
};

/// Publishes kCorpus; returns the fileIDs, index-aligned with it.
std::vector<uint64_t> PublishCorpus(Cluster* c) {
  Publisher pub(c->pier(0));
  PublishOptions opts;
  opts.inverted = true;
  opts.inverted_cache = true;
  std::vector<uint64_t> ids;
  for (const char* name : kCorpus) {
    uint32_t i = static_cast<uint32_t>(ids.size());
    ids.push_back(pub.PublishFile(name, 1000 + i, 100 + i, 6346, opts));
  }
  c->simulator.Run();
  return ids;
}

/// Ground truth: the fileIDs of the corpus files matching every term.
std::set<uint64_t> MatchingFiles(const std::vector<uint64_t>& corpus_ids,
                                 const std::vector<std::string>& terms) {
  std::set<uint64_t> ids;
  for (size_t i = 0; i < corpus_ids.size(); ++i) {
    if (FilenameMatchesQuery(kCorpus[i], terms)) ids.insert(corpus_ids[i]);
  }
  return ids;
}

std::set<uint64_t> PlanSearch(Cluster* c, size_t from,
                              const std::string& query,
                              const SearchOptions& options) {
  SearchEngine engine(c->pier(from));
  std::set<uint64_t> ids;
  bool done = false;
  engine.Search(query, options, [&](Status s, auto hits,
                                    const pier::Completeness&) {
    done = true;
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (const auto& h : hits) ids.insert(h.file_id);
  });
  c->simulator.Run();
  EXPECT_TRUE(done);
  return ids;
}

TEST(PlanParityTest, BothStrategiesReturnMatchingFilesAtFrozenCost) {
  Cluster c(32);
  std::vector<uint64_t> corpus_ids = PublishCorpus(&c);
  struct Case {
    const char* query;
    std::vector<std::string> terms;
    /// Message cost per [strategy][fetch_items] (kDistributedJoin, then
    /// kInvertedCache; without, then with the Item fetch), as recorded
    /// when a hardwired join-chain path ran beside the compiled plans and
    /// matched them exactly.
    uint64_t messages[2][2];
  };
  const Case cases[] = {
      {"madonna prayer", {"madonna", "prayer"}, {{7, 9}, {4, 6}}},
      {"beatles", {"beatles"}, {{4, 12}, {4, 12}}},
      {"dark side moon", {"dark", "side", "moon"}, {{10, 13}, {4, 7}}},
  };
  for (SearchStrategy strategy :
       {SearchStrategy::kDistributedJoin, SearchStrategy::kInvertedCache}) {
    for (bool fetch : {true, false}) {
      for (const Case& tc : cases) {
        SearchOptions options;
        options.strategy = strategy;
        options.fetch_items = fetch;

        uint64_t before = c.network->metrics().total.messages;
        std::set<uint64_t> via_plan = PlanSearch(&c, 4, tc.query, options);
        uint64_t plan_msgs = c.network->metrics().total.messages - before;

        std::set<uint64_t> expect = MatchingFiles(corpus_ids, tc.terms);
        EXPECT_FALSE(expect.empty()) << tc.query;
        EXPECT_EQ(via_plan, expect)
            << tc.query << " strategy=" << static_cast<int>(strategy);
        EXPECT_EQ(plan_msgs,
                  tc.messages[static_cast<int>(strategy)][fetch ? 1 : 0])
            << tc.query << " strategy=" << static_cast<int>(strategy)
            << " fetch=" << fetch;
      }
    }
  }
  EXPECT_GT(c.metrics.plans_executed, 0u);
}

TEST(PlanParityTest, OrderByPostingSizeRunsAsPlanRewrite) {
  // The §5 SHJ-order contract survives the rewrite-pass implementation:
  // one huge and one tiny posting list; the optimized plan must ship the
  // tiny one.
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
    SearchEngine engine(c.pier(3));
    engine.Search("popular gemstone", so, [&](Status s, auto hits,
                                              const pier::Completeness&) {
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(hits.size(), 1u);
    });
    c.simulator.Run();
    return c.metrics.posting_entries_shipped;
  };
  EXPECT_GT(run(false), 100u);  // ships "popular"'s 201 entries
  EXPECT_LE(run(true), 2u);     // rewrite visits "gemstone" first
}

TEST(PlanParityTest, FetchJoinLegHonorsPlanTimeout) {
  Cluster c(24);
  // One item whose owner answers 60 simulated seconds late: the plan's
  // FetchJoin leg must fail the query at the plan deadline instead of
  // riding the DHT's 10-second progress watchdog past it.
  uint64_t id = 42;
  dht::Key item_key = HashCombine(Fnv1a64(ItemSchema().table_name()),
                                  pier::Value(id).Hash());
  sim::HostId owner = c.dht->ExpectedOwner(item_key)->host();
  // Index the item under a keyword another node owns, and query from that
  // node: only the fetch leg meets the slow host.
  std::string keyword;
  size_t from = c.piers.size();
  for (int i = 0; from == c.piers.size(); ++i) {
    keyword = "slow" + std::to_string(i);
    dht::DhtNode* kw_owner = c.dht->ExpectedOwner(
        HashCombine(Fnv1a64(InvertedSchema().table_name()),
                    pier::Value(keyword).Hash()));
    if (kw_owner->host() == owner) continue;
    for (size_t p = 0; p < c.piers.size(); ++p) {
      if (c.pier(p)->dht() == kw_owner) from = p;
    }
  }
  c.pier(0)->PublishBatch(
      InvertedSchema(), {pier::Tuple({pier::Value(keyword), pier::Value(id)})});
  c.pier(0)->PublishBatch(
      ItemSchema(),
      {pier::Tuple({pier::Value(id), pier::Value("slow file.mp3"),
                    pier::Value(uint64_t{100}), pier::Value(uint64_t{9}),
                    pier::Value(uint64_t{6346})})});
  c.simulator.Run();
  c.network->SetProcessingDelay(owner, 60 * sim::kSecond);

  SearchOptions options;
  options.timeout = 2 * sim::kSecond;
  SearchEngine engine(c.pier(from));
  uint64_t partials_before = c.metrics.partial_results;
  sim::SimTime start = c.simulator.now();
  Status status = Status::OK();
  pier::Completeness completeness;
  int calls = 0;
  sim::SimTime finished = 0;
  engine.RunPlan(BuildSearchPlan({keyword}, options), options,
                 [&](Status s, auto hits, const pier::Completeness& cc) {
                   ++calls;
                   status = s;
                   completeness = cc;
                   finished = c.simulator.now();
                   EXPECT_TRUE(hits.empty());
                 });
  c.simulator.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), StatusCode::kTimedOut);
  EXPECT_EQ(status.message(), "plan item fetch");
  EXPECT_LE(finished - start, 3 * sim::kSecond);
  EXPECT_FALSE(completeness.exact);
  EXPECT_EQ(completeness.coverage_fraction, 0.0);
  EXPECT_EQ(c.metrics.partial_results - partials_before, 1u);
}

}  // namespace
}  // namespace pierstack::piersearch
