// hybrid_flood: the Section 7 hybrid deployment, scaled up.
//
// A trace-loaded Gnutella network with dynamic querying; a fixed fraction
// of the ultrapeers are hybrids — each with a PierNode on a shared Bamboo
// DHT, QRS publishing and the InvertedCache strategy. Publish (warm)
// phase: leaf queries from random leaves at a fixed rate; the hybrids snoop
// the results flowing past them and QRS-publish the rare ones. Query phase:
// previously seen rare queries are reissued through HybridUltrapeer::Query
// at a fixed rate — Gnutella first, the DHT after the Gnutella timeout.
// Latency is the time to the first result. Every hit must be a file the
// named host really shares and must match the query's terms.
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "bench_common.h"
#include "common/rng.h"
#include "common/tokenizer.h"
#include "dht/builder.h"
#include "gnutella/topology.h"
#include "hybrid/hybrid_ultrapeer.h"
#include "workload/trace.h"

namespace perfbench {

using namespace pierstack;

namespace {

constexpr size_t kNodes = 8000;
constexpr size_t kFiles = 12000;
constexpr size_t kWarmQueries = 4000;
constexpr double kWarmQueriesPerSimSecond = 10;
constexpr size_t kHybridQueries = 1000;
constexpr double kHybridQueriesPerSimSecond = 4;
constexpr size_t kHybridPercentOfUltrapeers = 5;
/// Rare-query rule for the reissued queries (Section 7's focus).
constexpr uint64_t kRareResults = 30;
constexpr size_t kMaxResults = 150;

struct HybridOutcome {
  bool done = false;
  sim::SimTime due = 0;
  sim::SimTime first = 0;
  size_t hits = 0;
  bool bad_hit = false;
};

}  // namespace

Rep RunHybridFlood(uint64_t seed, Tracing* tr) {
  Rep rep;
  SpanRecorder* spans = tr ? &tr->spans : nullptr;

  // --- Set-up: trace -------------------------------------------------------
  double wall = WallSeconds();
  workload::WorkloadConfig wc;
  wc.num_nodes = kNodes;
  wc.num_distinct_files = kFiles;
  wc.vocab_size = kFiles * 2 / 5;
  wc.num_queries = kWarmQueries;
  wc.max_replicas = kNodes / 8;
  wc.seed = seed;
  workload::Trace trace;
  std::vector<size_t> rare;  // warm-query indices reissued in the query phase
  {
    ScopedSpan s(spans, "setup", "setup.trace");
    trace = workload::GenerateTrace(wc);
    for (size_t q = 0; q < trace.queries.size() && rare.size() < kHybridQueries;
         ++q) {
      const auto& query = trace.queries[q];
      if (query.total_results >= 1 && query.total_results <= kRareResults &&
          !ExtractUniqueKeywords(query.text).empty()) {
        rare.push_back(q);
      }
    }
  }
  rep.setup_trace_s = WallSeconds() - wall;

  // --- Set-up: deployment --------------------------------------------------
  wall = WallSeconds();
  std::unique_ptr<sim::Executor> exec;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<gnutella::GnutellaNetwork> gnet;
  std::unique_ptr<dht::DhtDeployment> dht;
  pier::PierMetrics pier_metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  std::vector<std::unique_ptr<hybrid::HybridUltrapeer>> hybrids;
  hybrid::HybridConfig hc;
  hc.gnutella_timeout = 30 * sim::kSecond;
  hc.qrs_threshold = 20;
  hc.publish.inverted = false;
  hc.publish.inverted_cache = true;
  hc.search.strategy = piersearch::SearchStrategy::kInvertedCache;
  hc.search.max_results = kMaxResults;
  size_t num_ups = kNodes / 5;
  size_t num_leaves = kNodes - num_ups;
  {
    ScopedSpan s(spans, "setup", "setup.build");
    exec = MakeExecutor(1, 0, tr);
    network = std::make_unique<sim::Network>(
        exec.get(),
        std::make_unique<sim::UniformLatency>(15 * sim::kMillisecond,
                                              150 * sim::kMillisecond),
        seed * 7 + 5);
    gnutella::TopologyConfig tc;
    tc.num_ultrapeers = num_ups;
    tc.num_leaves = num_leaves;
    tc.protocol.ultrapeer_degree = 16;
    tc.protocol.query_mode = gnutella::QueryMode::kDynamic;
    tc.protocol.dynamic.desired_results = kMaxResults;
    tc.protocol.dynamic.max_ttl = 2;
    tc.seed = seed + 6;
    gnet = std::make_unique<gnutella::GnutellaNetwork>(network.get(), tc);
    for (size_t i = 0; i < kNodes; ++i) {
      gnutella::GnutellaNode* node = gnet->node(i);
      node->SetSharedFiles(trace.FilenamesOfNode(i));
      if (node->role() == gnutella::Role::kLeaf) {
        for (sim::HostId up : node->parent_ultrapeers()) node->RepublishTo(up);
      }
      if (tr) tr->exec->SetHostClass(node->host(), kClassGnutella);
    }
    size_t num_hybrid = num_ups * kHybridPercentOfUltrapeers / 100;
    dht::DhtOptions dopt;
    dopt.overlay = dht::OverlayKind::kBamboo;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), num_hybrid, dopt,
                                               seed + 314);
    for (size_t i = 0; i < num_hybrid; ++i) {
      piers.push_back(
          std::make_unique<pier::PierNode>(dht->node(i), &pier_metrics));
      hybrids.push_back(std::make_unique<hybrid::HybridUltrapeer>(
          gnet->ultrapeer(i), piers[i].get(), hc));
    }
  }
  rep.setup_build_s = WallSeconds() - wall;
  wall = WallSeconds();
  {
    ScopedSpan s(spans, "setup", "setup.settle");
    exec->Run();
  }
  rep.setup_settle_s = WallSeconds() - wall;

  // Who shares what: the oracle for every hit.
  std::unordered_map<sim::HostId, std::unordered_set<std::string>> shared;
  for (size_t i = 0; i < kNodes; ++i) {
    auto names = trace.FilenamesOfNode(i);
    shared[gnet->node(i)->host()] =
        std::unordered_set<std::string>(names.begin(), names.end());
  }

  // --- Publish (warm) phase: leaf queries, snooped and QRS-published -------
  auto hybrid_sum = [&](uint64_t hybrid::HybridStats::*field) {
    uint64_t sum = 0;
    for (const auto& h : hybrids) sum += h->stats().*field;
    return sum;
  };
  PhaseProbe probe(network.get(), tr);
  dht::DhtMetrics dht_before = dht->metrics();
  pier::PierMetrics pier_before = pier_metrics;
  gnutella::GnutellaMetrics gnut_before = gnet->metrics();
  double measured_start = WallSeconds();
  sim::NetworkMetrics net_before = network->metrics();
  {
    ScopedSpan phase(spans, "driver", "phase.publish");
    Rng rng(seed ^ 0x3A7Bu);
    sim::SimTime start = exec->now() + sim::kMillisecond;
    sim::SimTime gap =
        static_cast<sim::SimTime>(sim::kSecond / kWarmQueriesPerSimSecond);
    for (size_t q = 0; q < trace.queries.size(); ++q) {
      size_t leaf = static_cast<size_t>(rng.NextBelow(num_leaves));
      exec->ScheduleAt(sim::kDriverHost, start + q * gap,
                       [&, q, leaf, pid = phase.id()]() {
                         ScopedSpan call(spans, "gnutella",
                                         "gnutella.StartQuery", pid);
                         gnet->leaf(leaf)->StartQuery(
                             trace.queries[q].text,
                             [](const std::vector<gnutella::QueryResult>&) {});
                       });
    }
    rep.attempted += trace.queries.size();
    wall = WallSeconds();
    RunGauged(exec.get(), &rep.publish_gauge);
    rep.publish_wall_s = WallSeconds() - wall - rep.publish_gauge.spent_s();
  }
  rep.published = hybrid_sum(&hybrid::HybridStats::rare_results_published);
  {
    const sim::NetworkMetrics& now = network->metrics();
    rep.publish_bytes = (now.total.bytes - TaggedBytes(now, "gnutella.")) -
                        (net_before.total.bytes -
                         TaggedBytes(net_before, "gnutella."));
  }

  // --- Query phase: rare queries reissued through the hybrids --------------
  std::vector<HybridOutcome> outcomes(rare.size());
  uint64_t bytes_before = network->metrics().total.bytes;
  uint64_t partial_before = hybrid_sum(&hybrid::HybridStats::dht_partial);
  {
    ScopedSpan phase(spans, "driver", "phase.query");
    sim::SimTime start = exec->now() + sim::kMillisecond;
    sim::SimTime gap =
        static_cast<sim::SimTime>(sim::kSecond / kHybridQueriesPerSimSecond);
    for (size_t i = 0; i < rare.size(); ++i) {
      sim::SimTime due = start + i * gap;
      outcomes[i].due = due;
      hybrid::HybridUltrapeer* h = hybrids[i % hybrids.size()].get();
      const workload::TraceQuery& query = trace.queries[rare[i]];
      exec->ScheduleAt(sim::kDriverHost, due, [&, i, h, pid = phase.id()]() {
        ScopedSpan call(spans, "hybrid", "hybrid.Query", pid);
        std::vector<std::string> terms = ExtractUniqueKeywords(query.text);
        h->Query(
            query.text,
            [&, i, terms](const hybrid::HybridHit& hit) {
              HybridOutcome& o = outcomes[i];
              if (o.hits++ == 0) o.first = hit.arrival;
              auto it = shared.find(hit.address);
              if (it == shared.end() || !it->second.count(hit.filename) ||
                  !FilenameMatchesQuery(hit.filename, terms)) {
                o.bad_hit = true;
              }
            },
            [&, i]() { outcomes[i].done = true; });
      });
    }
    rep.queries = rare.size();
    rep.attempted += rare.size();
    wall = WallSeconds();
    RunGauged(exec.get(), &rep.query_gauge);
    rep.query_wall_s = WallSeconds() - wall - rep.query_gauge.spent_s();
  }
  rep.query_bytes = network->metrics().total.bytes - bytes_before;
  probe.Finish(WallSeconds() - measured_start -
                   rep.publish_gauge.spent_s() - rep.query_gauge.spent_s(),
               &rep);
  DhtLayers(dht_before, dht->metrics(), &rep);
  PierLayers(pier_before, pier_metrics, &rep);

  // --- Oracle and metrics --------------------------------------------------
  rep.failed = hybrid_sum(&hybrid::HybridStats::dht_partial) - partial_before;
  uint64_t empty = 0, total_hits = 0;
  for (size_t i = 0; i < rare.size(); ++i) {
    const HybridOutcome& o = outcomes[i];
    const workload::TraceQuery& query = trace.queries[rare[i]];
    if (!o.done) {
      ++rep.failed;
      continue;
    }
    if (o.bad_hit) {
      ++rep.wrong;
      if (rep.first_error.empty()) {
        rep.first_error = "hybrid_flood: query \"" + query.text +
                          "\" returned a file its host does not share or "
                          "that does not match the query";
      }
    }
    total_hits += o.hits;
    if (o.hits == 0) {
      ++empty;
    } else {
      rep.latency_ms.push_back(static_cast<double>(o.first - o.due) / 1e3);
    }
    double den = static_cast<double>(
        std::min<uint64_t>(kMaxResults, query.total_results));
    rep.recall_den += den;
    rep.recall_num += std::min(den, static_cast<double>(o.hits));
  }
  rep.failed += rep.wrong;

  const gnutella::GnutellaMetrics& g = gnet->metrics();
  double started = static_cast<double>(g.queries_started -
                                       gnut_before.queries_started);
  double msgs = static_cast<double>(
      (g.query_messages - gnut_before.query_messages) +
      (g.query_hit_messages - gnut_before.query_hit_messages));
  std::map<std::string, double>& L = rep.layer;
  L["gnutella.msgs_per_query"] = started > 0 ? msgs / started : 0;
  L["gnutella.start_query_us"] = SpanMeanUs(tr, "gnutella.StartQuery");
  double queried = static_cast<double>(hybrid_sum(
      &hybrid::HybridStats::hybrid_queries));
  double reissued =
      static_cast<double>(hybrid_sum(&hybrid::HybridStats::dht_reissued));
  L["hybrid.reissue_ratio"] = queried > 0 ? reissued / queried : 0;
  L["hybrid.dht_answer_ratio"] =
      reissued > 0
          ? static_cast<double>(
                hybrid_sum(&hybrid::HybridStats::dht_answered)) /
                reissued
          : 0;
  L["hybrid.rare_published"] = static_cast<double>(rep.published);
  L["hybrid.query_call_us"] = SpanMeanUs(tr, "hybrid.Query");
  L["hybrid.empty_frac"] =
      static_cast<double>(empty) / static_cast<double>(rare.size());
  L["piersearch.hits_per_query"] =
      static_cast<double>(total_hits) / static_cast<double>(rare.size());

  Fp(&rep, exec->events_executed());
  Fp(&rep, exec->now());
  Fp(&rep, network->metrics().total.messages);
  Fp(&rep, network->metrics().total.bytes);
  Fp(&rep, rep.published);
  Fp(&rep, total_hits);
  Fp(&rep, empty);
  FpDoubles(&rep, rep.latency_ms);

  if (tr) {
    // TupleBatch codec cost on this workload's InvertedCache tuples.
    std::vector<pier::Tuple> tuples;
    for (const auto& f : trace.files) {
      if (tuples.size() >= 20000) break;
      pier::Value name(f.filename);
      for (const auto& kw : f.keywords) {
        tuples.push_back(pier::Tuple(
            {pier::Value(kw), pier::Value(uint64_t{f.id}), name}));
      }
    }
    TimeTupleBatch(tuples, &rep);
  }
  return rep;
}

}  // namespace perfbench
