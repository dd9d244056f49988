// Section 5 claim: "queries that return 10 or fewer results require
// shipping 7 times fewer posting list entries compared to the average
// across all queries" (SHJ optimized smallest-posting-list-first).
//
// Replays trace queries through the real distributed join over a DHT and
// reports shipped posting entries per query, bucketed by ground truth.
//
//   ./build/bench/sec5_posting_list_cost [scale]
#include <cstdio>
#include <memory>

#include "common/table.h"
#include "common/stats.h"
#include "dht/builder.h"
#include "piersearch/publisher.h"
#include "piersearch/search_engine.h"
#include "workload/trace.h"

using namespace pierstack;

int main(int argc, char** argv) {
  double scale = argc >= 2 && atof(argv[1]) > 0 ? atof(argv[1]) : 1.0;
  workload::WorkloadConfig wc;
  wc.num_nodes = static_cast<size_t>(4000 * scale);
  wc.num_distinct_files = static_cast<size_t>(6000 * scale);
  wc.num_queries = 400;
  wc.seed = 2004;
  // Live-query mix (popularity-skewed, like the replayed 70k queries).
  wc.query_file_bias = 1.3;
  wc.query_popular_terms = 0.17;
  wc.query_from_file = 0.80;
  wc.popular_query_min_terms = 2;
  auto trace = workload::GenerateTrace(wc);

  sim::SerialExecutor simulator;
  sim::Network network(&simulator,
                       std::make_unique<sim::ConstantLatency>(
                           20 * sim::kMillisecond),
                       9);
  dht::DhtDeployment dht(&network, 64, dht::DhtOptions{}, 31);
  pier::PierMetrics metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  for (size_t i = 0; i < dht.size(); ++i) {
    piers.push_back(std::make_unique<pier::PierNode>(dht.node(i), &metrics));
  }

  // Publish an Inverted entry per file copy (posting lists sized by
  // replication, like the paper's 700k-file sample). Each node's library
  // goes through the coalesced batch pipeline: same-keyword tuples share
  // one PutBatch message per destination.
  piersearch::Publisher publisher(piers[0].get());
  piersearch::PublishOptions popts;  // inverted only
  uint64_t copies = 0;
  for (size_t node = 0; node < trace.node_files.size(); ++node) {
    std::vector<piersearch::FileToPublish> files;
    files.reserve(trace.node_files[node].size());
    for (uint32_t f : trace.node_files[node]) {
      files.push_back(piersearch::FileToPublish{
          trace.files[f].filename, 1 << 20, static_cast<uint32_t>(node),
          6346});
    }
    publisher.PublishFiles(files, popts);
    copies += files.size();
  }
  simulator.Run();
  std::printf("sec5: published %llu copies (%llu tuples, %llu put messages) "
              "into a 64-node DHT\n",
              (unsigned long long)copies,
              (unsigned long long)publisher.stats().tuples_published,
              (unsigned long long)metrics.publish_messages);

  // Replay queries through the SHJ chain, smallest posting list first.
  Summary rare_shipped, all_shipped;
  size_t replayed = 0;
  for (const auto& q : trace.queries) {
    if (q.terms.size() < 2) continue;  // single-term queries ship nothing
    if (replayed >= 250) break;
    piersearch::SearchEngine engine(piers[replayed % 64].get());
    piersearch::SearchOptions so;
    so.order_by_posting_size = true;
    so.fetch_items = false;
    so.max_results = SIZE_MAX;
    uint64_t before = metrics.posting_entries_shipped;
    bool ok = false;
    engine.Search(q.text, so, [&](Status s, auto, const pier::Completeness&) {
      ok = s.ok();
    });
    simulator.Run();
    if (!ok) continue;
    double shipped = double(metrics.posting_entries_shipped - before);
    all_shipped.Add(shipped);
    if (q.total_results <= 10) rare_shipped.Add(shipped);
    ++replayed;
  }

  TablePrinter table({"query class", "queries", "avg posting entries shipped"});
  table.AddRow({"<= 10 results", FormatI((long long)rare_shipped.count()),
                FormatF(rare_shipped.mean(), 1)});
  table.AddRow({"all multi-term", FormatI((long long)all_shipped.count()),
                FormatF(all_shipped.mean(), 1)});
  table.Print();
  double ratio = rare_shipped.mean() > 0
                     ? all_shipped.mean() / rare_shipped.mean()
                     : 0;
  std::printf("\nanchor (paper -> measured): rare queries ship ~7x fewer "
              "entries -> %.1fx\n", ratio);
  return 0;
}
