// Whole-system integration: a trace-loaded Gnutella network with hybrid
// ultrapeers on a DHT — the Section 7 deployment in miniature.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/hashing.h"
#include "common/stats.h"
#include "dht/builder.h"
#include "gnutella/topology.h"
#include "hybrid/hybrid_ultrapeer.h"
#include "hybrid/schemes.h"
#include "pier/node.h"
#include "pier/plan.h"
#include "workload/trace.h"

namespace pierstack {
namespace {

struct Deployment {
  // Env-selected backend: serial by default, sharded under
  // PIERSTACK_SHARDS>1 (lookahead = the 15ms constant latency below).
  std::unique_ptr<sim::Executor> exec =
      sim::MakeEnvExecutor(15 * sim::kMillisecond);
  sim::Executor& simulator = *exec;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<gnutella::GnutellaNetwork> gnutella;
  std::unique_ptr<dht::DhtDeployment> dht;
  pier::PierMetrics pier_metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  std::vector<std::unique_ptr<hybrid::HybridUltrapeer>> hybrids;
  workload::Trace trace;

  Deployment() {
    workload::WorkloadConfig wc;
    wc.num_nodes = 400;
    wc.num_distinct_files = 700;
    wc.vocab_size = 900;
    wc.num_queries = 120;
    wc.max_replicas = 60;
    wc.seed = 17;
    trace = workload::GenerateTrace(wc);

    network = std::make_unique<sim::Network>(
        exec.get(),
        std::make_unique<sim::ConstantLatency>(15 * sim::kMillisecond), 71);

    gnutella::TopologyConfig tc;
    tc.num_ultrapeers = 80;
    tc.num_leaves = 320;  // 400 nodes total, matching the trace
    tc.protocol.ultrapeer_degree = 3;
    tc.protocol.flood_ttl = 2;
    tc.seed = 5;
    gnutella = std::make_unique<gnutella::GnutellaNetwork>(network.get(), tc);

    // Load every node's library from the trace.
    for (size_t i = 0; i < 400; ++i) {
      gnutella->node(i)->SetSharedFiles(trace.FilenamesOfNode(i));
    }
    gnutella->PublishAllFiles();

    // All 80 ultrapeers are hybrid and share one DHT.
    dht = std::make_unique<dht::DhtDeployment>(network.get(), 80,
                                               dht::DhtOptions{}, 999);
    hybrid::HybridConfig hc;
    hc.gnutella_timeout = 3 * sim::kSecond;
    for (size_t i = 0; i < 80; ++i) {
      piers.push_back(
          std::make_unique<pier::PierNode>(dht->node(i), &pier_metrics));
      hybrids.push_back(std::make_unique<hybrid::HybridUltrapeer>(
          gnutella->ultrapeer(i), piers[i].get(), hc));
    }
    simulator.Run();
  }
};

TEST(EndToEndTest, HybridImprovesRecallOverGnutellaAlone) {
  Deployment d;
  // Proactive selective publishing at every hybrid UP: TF scheme over the
  // trace decides which of its indexed files are rare.
  auto scores = hybrid::TermFrequencyScheme().Scores(d.trace);
  auto published = hybrid::SelectByBudget(d.trace, scores, 0.5);
  std::map<std::string, bool> publish_by_name;
  for (size_t i = 0; i < d.trace.files.size(); ++i) {
    publish_by_name[d.trace.files[i].filename] = published[i];
  }
  for (auto& h : d.hybrids) {
    h->PublishLocalFiles(
        [&](const gnutella::KeywordIndex::Entry& e) {
          auto it = publish_by_name.find(e.filename);
          return it != publish_by_name.end() && it->second;
        });
  }
  d.simulator.Run();
  EXPECT_GT(d.pier_metrics.tuples_published, 0u);

  // Replay rare-item queries (ground truth 1..5 results) from hybrid UPs.
  size_t replayed = 0, gnutella_found = 0, hybrid_found = 0;
  for (const auto& q : d.trace.queries) {
    if (q.total_results == 0 || q.total_results > 5) continue;
    if (replayed >= 25) break;
    size_t up = replayed % 80;
    ++replayed;
    auto got = std::make_shared<std::vector<hybrid::HybridHit>>();
    d.hybrids[up]->Query(q.text, [got](const hybrid::HybridHit& h) {
      got->push_back(h);
    });
    d.simulator.Run();
    bool via_g = false, any = false;
    for (const auto& h : *got) {
      any = true;
      if (!h.via_dht) via_g = true;
    }
    gnutella_found += via_g;
    hybrid_found += any;
  }
  ASSERT_GT(replayed, 10u);
  // The DHT fallback must answer strictly more rare queries than flooding
  // alone (the paper's headline deployment result).
  EXPECT_GT(hybrid_found, gnutella_found);
  // No stored tuple may be lost to deserialize failures anywhere in the
  // publish -> store -> scan/fetch pipeline.
  EXPECT_EQ(d.pier_metrics.tuples_dropped_deserialize, 0u);
}

TEST(EndToEndTest, HybridResultsAreCorrect) {
  Deployment d;
  for (auto& h : d.hybrids) {
    h->PublishLocalFiles(
        [](const gnutella::KeywordIndex::Entry&) { return true; });
  }
  d.simulator.Run();

  size_t checked = 0;
  for (const auto& q : d.trace.queries) {
    if (q.total_results == 0 || checked >= 15) continue;
    ++checked;
    std::set<std::string> valid;
    for (uint32_t m : q.matches) valid.insert(d.trace.files[m].filename);
    auto got = std::make_shared<std::vector<hybrid::HybridHit>>();
    d.hybrids[checked % 80]->Query(
        q.text,
        [got](const hybrid::HybridHit& h) { got->push_back(h); });
    d.simulator.Run();
    for (const auto& h : *got) {
      EXPECT_TRUE(valid.count(h.filename))
          << "query '" << q.text << "' returned non-matching '"
          << h.filename << "'";
    }
  }
  EXPECT_GT(checked, 5u);
  EXPECT_EQ(d.pier_metrics.tuples_dropped_deserialize, 0u);
}

TEST(EndToEndTest, PublishedBytesAccounted) {
  Deployment d;
  d.hybrids[0]->PublishLocalFiles(
      [](const gnutella::KeywordIndex::Entry&) { return true; });
  d.simulator.Run();
  const auto& stats = d.hybrids[0]->publisher().stats();
  EXPECT_GT(stats.files_published, 0u);
  EXPECT_GT(stats.tuple_bytes, 0u);
  // Network accounting saw the publish traffic.
  EXPECT_GT(d.network->metrics().by_tag.count("dht.route"), 0u);
}

// The load-adaptive transport in one deployment: adaptive rehash flushes
// while publishing, replica peels while fetching, credit stalls while a
// slow stage owner consumes a chunked join — all surfaced through one
// CounterSet (the common/stats reporting currency).
TEST(EndToEndTest, TransportCountersSurfaced) {
  sim::SerialExecutor simulator;
  sim::Network network(&simulator,
                       std::make_unique<sim::ConstantLatency>(
                           5 * sim::kMillisecond),
                       29);
  dht::DhtOptions dopts;
  dopts.replication = 2;
  // The routing-layer counters asserted below need the load-balanced
  // policy; pin it so the classic CI leg (env override) still runs this
  // test as written.
  dopts.routing_policy = dht::RoutingPolicyKind::kCongestionAware;
  dht::DhtDeployment dht(&network, 24, dopts, 4242);
  pier::PierMetrics pier_metrics;
  pier::BatchOptions bopts;
  bopts.max_stage_entries = 8;
  bopts.stage_credit_chunks = 2;
  // Pin the fixed credit window: this test asserts the stall/grant
  // contract at exactly this window; the service-rate-derived window has
  // its own coverage in pier_credit_flow_test.
  bopts.max_stage_credit_chunks = bopts.stage_credit_chunks;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  for (size_t i = 0; i < dht.size(); ++i) {
    piers.push_back(
        std::make_unique<pier::PierNode>(dht.node(i), &pier_metrics));
    piers.back()->set_batch_options(bopts);
  }

  const pier::Schema inv("inverted",
                         {{"keyword", pier::ValueType::kString},
                          {"fileID", pier::ValueType::kUint64}},
                         0);
  const pier::Schema items("items",
                           {{"fileID", pier::ValueType::kUint64},
                            {"name", pier::ValueType::kString}},
                           0);

  // Publish enough postings per keyword that the idle-path adaptive
  // threshold fires, plus item rows to fetch back.
  std::vector<pier::Value> item_keys;
  for (const char* kw : {"alpha", "beta"}) {
    std::vector<pier::Tuple> postings;
    for (uint64_t f = 0; f < 120; ++f) {
      postings.push_back(
          pier::Tuple({pier::Value(std::string(kw)), pier::Value(f)}));
    }
    piers[0]->PublishBatch(inv, std::move(postings));
  }
  std::vector<pier::Tuple> rows;
  for (uint64_t f = 0; f < 48; ++f) {
    item_keys.push_back(pier::Value(f));
    rows.push_back(pier::Tuple(
        {pier::Value(f), pier::Value("file " + std::to_string(f))}));
  }
  piers[0]->PublishBatch(items, std::move(rows));
  piers[0]->FlushPublishQueues();
  simulator.Run();

  // Owner-coalesced fetch over the replicated item table: the scatter must
  // peel at replicas.
  size_t fetched = 0;
  piers[2]->FetchMany(items, item_keys,
                      [&](Status s, std::vector<pier::Tuple> tuples,
                          const pier::Completeness&) {
                        ASSERT_TRUE(s.ok()) << s.ToString();
                        fetched = tuples.size();
                      });
  simulator.Run();
  EXPECT_EQ(fetched, item_keys.size());

  // The same fetch again: the first round's replies taught the fetcher the
  // owners' arcs, so the warm scatter must hit the owner location cache.
  fetched = 0;
  piers[2]->FetchMany(items, item_keys,
                      [&](Status s, std::vector<pier::Tuple> tuples,
                          const pier::Completeness&) {
                        ASSERT_TRUE(s.ok()) << s.ToString();
                        fetched = tuples.size();
                      });
  simulator.Run();
  EXPECT_EQ(fetched, item_keys.size());

  // Chunked join against a slowed stage owner: credit pacing must stall at
  // least once and still complete with the exact intersection.
  dht::Key beta_key =
      HashCombine(Fnv1a64("inverted"), pier::Value(std::string("beta")).Hash());
  network.SetProcessingDelay(dht.ExpectedOwner(beta_key)->host(),
                             20 * sim::kMillisecond);
  pier::QueryPlan join =
      pier::PlanBuilder()
          .IndexScan("inverted", pier::Value(std::string("alpha")))
          .RehashJoin("inverted", pier::Value(std::string("beta")))
          .Build();
  size_t results = 0;
  piers[5]->ExecutePlan(std::move(join),
                        [&](Status s, std::vector<pier::Tuple> rows,
                            const pier::Completeness&) {
                          ASSERT_TRUE(s.ok()) << s.ToString();
                          results = rows.size();
                        });
  simulator.Run();
  EXPECT_EQ(results, 120u);

  // Hot-spot routing: bury one node under a processing delay, then fire a
  // burst of puts whose greedy first hop is that node while an alternative
  // finger makes progress too — the congestion-aware policy must detour.
  dht::DhtNode* hot_origin = dht.node(8);
  sim::HostId hot = dht.ExpectedOwner(beta_key)->host();
  network.SetProcessingDelay(hot, 80 * sim::kMillisecond);
  std::vector<dht::Key> hot_keys;
  for (uint64_t i = 1; i < 50000 && hot_keys.size() < 30; ++i) {
    dht::Key k = Mix64(i ^ 0x9e3779b97f4a7c15ull);
    auto& table = hot_origin->routing();
    if (table.IsOwner(k)) continue;
    if (table.NextHop(k).host != hot) continue;
    std::vector<dht::NodeInfo> cands;
    table.AppendProgressCandidates(k, &cands);
    bool has_alternative = false;
    for (const auto& c : cands) {
      if (c.host != hot) has_alternative = true;
    }
    if (has_alternative) hot_keys.push_back(k);
  }
  ASSERT_GT(hot_keys.size(), 5u);
  for (dht::Key k : hot_keys) {
    hot_origin->Put("hotspot", k, {1, 2, 3});
  }
  simulator.Run();

  CounterSet counters;
  pier::ExportTransportCounters(pier_metrics, &counters);
  dht::ExportTransportCounters(dht.metrics(), &counters);
  EXPECT_GT(counters.Value("pier.adaptive_flushes"), 0u);
  EXPECT_GT(counters.Value("pier.credits_stalled"), 0u);
  EXPECT_GT(counters.Value("dht.replica_peels"), 0u);
  EXPECT_GT(counters.Value("dht.replica_skips"), 0u);
  // The routing layer's own counters, all live in one deployment: the warm
  // fetch hit the owner location cache (saving ring hops) and the hot-spot
  // burst routed around the buried node.
  EXPECT_GT(counters.Value("dht.route_cache_hits"), 0u);
  EXPECT_GT(counters.Value("dht.hops_saved"), 0u);
  EXPECT_GT(counters.Value("dht.congestion_detours"), 0u);
  EXPECT_EQ(counters.Value("pier.credit_streams_expired"), 0u);
  EXPECT_EQ(pier_metrics.tuples_dropped_deserialize, 0u);
}

}  // namespace
}  // namespace pierstack
