// search_join: PIERSearch over a Chord DHT with a PierNode on every node.
//
// Publish phase: every node bulk-publishes its trace library through
// Publisher::PublishFiles, one node every 2 ms of simulated time. Query
// phase: trace queries arrive at a fixed rate from random nodes and run the
// distributed-join plan (posting-size ordered, FetchJoin for the Item
// tuples), while a trickle of held-back file copies is published beside
// them. Every answer labeled exact is checked against ground truth built
// from workload::TraceIndex over the copies published so far.
#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "bench_common.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "common/tokenizer.h"
#include "dht/builder.h"
#include "piersearch/publisher.h"
#include "piersearch/search_engine.h"
#include "workload/trace.h"

namespace perfbench {

using namespace pierstack;

namespace {

constexpr size_t kNodes = 256;
constexpr size_t kFiles = 3000;
constexpr size_t kQueries = 2000;
constexpr double kQueriesPerSimSecond = 50;
constexpr size_t kTrickleCopies = 200;
constexpr size_t kMaxResults = 100;
constexpr sim::SimTime kPublishSpacing = 2 * sim::kMillisecond;
/// A copy published this long before a query's due time must be found.
constexpr sim::SimTime kSettle = 2 * sim::kSecond;

struct Copy {
  uint32_t file = 0;
  uint32_t node = 0;
  uint64_t size = 0;
  sim::SimTime published_at = 0;  ///< Due time of its publish call.
};

struct QueryOutcome {
  bool resolved = false;
  sim::SimTime due = 0;
  sim::SimTime at = 0;
  bool ok = false;
  bool exact = false;
  std::vector<piersearch::SearchHit> hits;
};

uint64_t FileSize(uint32_t file) { return (1u << 20) + (file % 4096) * 1024; }

}  // namespace

Rep RunSearchJoin(uint64_t seed, Tracing* tr) {
  Rep rep;
  SpanRecorder* spans = tr ? &tr->spans : nullptr;

  // --- Set-up: trace, ground truth -----------------------------------------
  double wall = WallSeconds();
  workload::WorkloadConfig wc;
  wc.num_nodes = kNodes;
  wc.num_distinct_files = kFiles;
  wc.vocab_size = kFiles * 2 / 5;
  wc.num_queries = kQueries * 3 / 2;
  wc.seed = seed;
  workload::Trace trace;
  std::vector<std::string> queries;
  std::vector<Copy> copies;
  std::vector<std::vector<uint32_t>> bulk(kNodes);  // node -> copy indices
  std::vector<uint32_t> trickle;                     // copy indices
  std::vector<std::vector<uint32_t>> copies_of_file;
  std::unordered_map<uint64_t, uint32_t> copy_by_id;
  {
    ScopedSpan s(spans, "setup", "setup.trace");
    trace = workload::GenerateTrace(wc);
    for (const auto& q : trace.queries) {
      if (!ExtractUniqueKeywords(q.text).empty()) queries.push_back(q.text);
      if (queries.size() == kQueries) break;
    }
    Rng rng(seed ^ 0x5EA2C4u);
    copies_of_file.resize(trace.files.size());
    for (uint32_t n = 0; n < kNodes; ++n) {
      for (uint32_t f : trace.node_files[n]) {
        uint32_t idx = static_cast<uint32_t>(copies.size());
        copies.push_back(Copy{f, n, FileSize(f), 0});
        copies_of_file[f].push_back(idx);
        copy_by_id[FileId(trace.files[f].filename, FileSize(f), n)] = idx;
        bulk[n].push_back(idx);
      }
    }
    // Hold back a random sample of copies for the query-phase trickle.
    for (size_t i : rng.SampleWithoutReplacement(copies.size(),
                                                 kTrickleCopies)) {
      uint32_t node = copies[i].node;
      auto& lib = bulk[node];
      lib.erase(std::find(lib.begin(), lib.end(), static_cast<uint32_t>(i)));
      trickle.push_back(static_cast<uint32_t>(i));
    }
  }
  workload::TraceIndex index(trace.files);
  rep.setup_trace_s = WallSeconds() - wall;

  // --- Set-up: deployment --------------------------------------------------
  wall = WallSeconds();
  std::unique_ptr<sim::Executor> exec;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  pier::PierMetrics pier_metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  std::vector<std::unique_ptr<piersearch::Publisher>> publishers;
  std::vector<std::unique_ptr<piersearch::SearchEngine>> engines;
  {
    ScopedSpan s(spans, "setup", "setup.build");
    exec = MakeExecutor(1, 0, tr);
    network = std::make_unique<sim::Network>(
        exec.get(),
        std::make_unique<sim::UniformLatency>(10 * sim::kMillisecond,
                                              100 * sim::kMillisecond),
        seed * 7 + 1);
    dht = std::make_unique<dht::DhtDeployment>(network.get(), kNodes,
                                               dht::DhtOptions{}, seed + 31);
    for (size_t i = 0; i < kNodes; ++i) {
      piers.push_back(
          std::make_unique<pier::PierNode>(dht->node(i), &pier_metrics));
      publishers.push_back(
          std::make_unique<piersearch::Publisher>(piers[i].get()));
      engines.push_back(
          std::make_unique<piersearch::SearchEngine>(piers[i].get()));
    }
  }
  rep.setup_build_s = WallSeconds() - wall;
  wall = WallSeconds();
  {
    ScopedSpan s(spans, "setup", "setup.settle");
    exec->Run();
  }
  rep.setup_settle_s = WallSeconds() - wall;

  // --- Publish phase -------------------------------------------------------
  auto to_publish = [&](const std::vector<uint32_t>& idx) {
    std::vector<piersearch::FileToPublish> files;
    files.reserve(idx.size());
    for (uint32_t c : idx) {
      files.push_back(piersearch::FileToPublish{
          trace.files[copies[c].file].filename, copies[c].size,
          copies[c].node, 6346});
    }
    return files;
  };
  piersearch::PublishOptions popts;
  PhaseProbe probe(network.get(), tr);
  dht::DhtMetrics dht_before = dht->metrics();
  pier::PierMetrics pier_before = pier_metrics;
  double measured_start = WallSeconds();
  uint64_t bytes_before = network->metrics().total.bytes;
  {
    ScopedSpan phase(spans, "driver", "phase.publish");
    sim::SimTime start = exec->now() + sim::kMillisecond;
    for (uint32_t n = 0; n < kNodes; ++n) {
      sim::SimTime due = start + n * kPublishSpacing;
      for (uint32_t c : bulk[n]) copies[c].published_at = due;
      rep.published += bulk[n].size();
      rep.attempted += bulk[n].size();
      exec->ScheduleAt(piers[n]->host(), due, [&, n, pid = phase.id()]() {
        ScopedSpan call(spans, "piersearch", "piersearch.PublishFiles", pid);
        publishers[n]->PublishFiles(to_publish(bulk[n]), popts);
      });
    }
    wall = WallSeconds();
    RunGauged(exec.get(), &rep.publish_gauge);
    rep.publish_wall_s = WallSeconds() - wall - rep.publish_gauge.spent_s();
  }
  rep.publish_bytes = network->metrics().total.bytes - bytes_before;

  // --- Query phase ---------------------------------------------------------
  std::vector<QueryOutcome> outcomes(queries.size());
  piersearch::SearchOptions so;
  so.strategy = piersearch::SearchStrategy::kDistributedJoin;
  so.order_by_posting_size = true;
  so.fetch_items = true;
  so.max_results = kMaxResults;
  bytes_before = network->metrics().total.bytes;
  {
    ScopedSpan phase(spans, "driver", "phase.query");
    Rng rng(seed ^ 0x0E1Cu);
    sim::SimTime start = exec->now() + sim::kSecond;
    sim::SimTime gap =
        static_cast<sim::SimTime>(sim::kSecond / kQueriesPerSimSecond);
    for (size_t q = 0; q < queries.size(); ++q) {
      uint32_t origin = static_cast<uint32_t>(rng.NextBelow(kNodes));
      sim::SimTime due = start + q * gap;
      outcomes[q].due = due;
      exec->ScheduleAt(
          piers[origin]->host(), due, [&, q, origin, pid = phase.id()]() {
            ScopedSpan call(spans, "piersearch", "piersearch.Search", pid);
            engines[origin]->Search(
                queries[q], so,
                [&, q](Status s, std::vector<piersearch::SearchHit> hits,
                       const pier::Completeness& c) {
                  QueryOutcome& o = outcomes[q];
                  o.resolved = true;
                  o.at = exec->now();
                  o.ok = s.ok();
                  o.exact = c.exact;
                  o.hits = std::move(hits);
                });
          });
    }
    sim::SimTime trickle_gap = queries.size() * gap / trickle.size();
    for (size_t j = 0; j < trickle.size(); ++j) {
      uint32_t c = trickle[j];
      sim::SimTime due = start + j * trickle_gap;
      copies[c].published_at = due;
      uint32_t node = copies[c].node;
      exec->ScheduleAt(piers[node]->host(), due,
                       [&, c, node, pid = phase.id()]() {
                         ScopedSpan call(spans, "piersearch",
                                         "piersearch.PublishFiles", pid);
                         publishers[node]->PublishFiles(to_publish({c}),
                                                        popts);
                       });
    }
    rep.queries = queries.size();
    rep.attempted += queries.size() + trickle.size();
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

  // --- Oracle --------------------------------------------------------------
  uint64_t total_hits = 0;
  auto wrong = [&rep](std::string what) {
    ++rep.wrong;
    if (rep.first_error.empty()) rep.first_error = std::move(what);
  };
  for (size_t q = 0; q < queries.size(); ++q) {
    const QueryOutcome& o = outcomes[q];
    if (!o.resolved || !o.ok || !o.exact) {
      ++rep.failed;
      continue;
    }
    rep.latency_ms.push_back(static_cast<double>(o.at - o.due) / 1e3);
    std::vector<uint32_t> files =
        index.Match(ExtractUniqueKeywords(queries[q]));
    std::unordered_set<uint32_t> matching(files.begin(), files.end());
    size_t by_due = 0, settled = 0;
    for (uint32_t f : files) {
      for (uint32_t c : copies_of_file[f]) {
        if (copies[c].published_at <= o.due) ++by_due;
        if (copies[c].published_at + kSettle <= o.due) ++settled;
      }
    }
    std::unordered_set<uint64_t> seen;
    for (const auto& h : o.hits) {
      auto it = copy_by_id.find(h.file_id);
      if (it == copy_by_id.end() || !matching.count(copies[it->second].file) ||
          copies[it->second].published_at > o.at ||
          h.filename != trace.files[copies[it->second].file].filename ||
          h.address != copies[it->second].node ||
          !seen.insert(h.file_id).second) {
        wrong("search_join: query \"" + queries[q] +
              "\" returned a hit that is not a published matching copy");
        break;
      }
    }
    size_t want = std::min(kMaxResults, settled);
    if (o.hits.size() < want || o.hits.size() > kMaxResults) {
      wrong("search_join: query \"" + queries[q] + "\" returned " +
            std::to_string(o.hits.size()) + " hits, ground truth " +
            std::to_string(want));
    }
    double den = static_cast<double>(std::min(kMaxResults, by_due));
    rep.recall_den += den;
    rep.recall_num += std::min(den, static_cast<double>(o.hits.size()));
    total_hits += o.hits.size();
  }
  rep.failed += rep.wrong;
  rep.layer["piersearch.hits_per_query"] =
      static_cast<double>(total_hits) / static_cast<double>(rep.queries);
  rep.layer["piersearch.publish_call_us"] =
      SpanMeanUs(tr, "piersearch.PublishFiles");
  rep.layer["piersearch.search_call_us"] = SpanMeanUs(tr, "piersearch.Search");

  Fp(&rep, exec->events_executed());
  Fp(&rep, exec->now());
  Fp(&rep, network->metrics().total.messages);
  Fp(&rep, network->metrics().total.bytes);
  Fp(&rep, total_hits);
  FpDoubles(&rep, rep.latency_ms);

  if (tr) {
    // TupleBatch codec cost on this workload's own Inverted tuples.
    std::vector<pier::Tuple> tuples;
    for (size_t c = 0; c < copies.size() && tuples.size() < 20000; ++c) {
      const auto& f = trace.files[copies[c].file];
      uint64_t id = FileId(f.filename, copies[c].size, copies[c].node);
      for (const auto& kw : f.keywords) {
        tuples.push_back(pier::Tuple({pier::Value(kw), pier::Value(id)}));
      }
    }
    TimeTupleBatch(tuples, &rep);
  }
  return rep;
}

}  // namespace perfbench
