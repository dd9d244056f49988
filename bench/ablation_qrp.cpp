// Ablation: leaf publishing mode — full file lists vs QRP-style keyword
// Bloom filters (paper footnote 2: Bloom filters "reduce publishing and
// searching costs in Gnutella").
//
// Measures publishing bytes, query-path messages (including UP→leaf
// forwards and Bloom false positives) and recall on the same workload.
//
//   ./build/bench/ablation_qrp [scale]
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/table.h"

using namespace pierstack;
using namespace pierstack::bench;

namespace {

struct ModeResult {
  uint64_t publish_bytes = 0;
  uint64_t query_messages = 0;
  uint64_t hit_messages = 0;
  uint64_t leaf_forwards = 0;
  uint64_t false_positives = 0;
  uint64_t results = 0;
  size_t queries = 0;
};

ModeResult RunModeFresh(gnutella::LeafPublishMode mode, double scale) {
  size_t ups = static_cast<size_t>(300 * scale);
  size_t leaves = static_cast<size_t>(1500 * scale);
  size_t queries = static_cast<size_t>(200 * scale);
  workload::WorkloadConfig wc;
  wc.num_nodes = ups + leaves;
  wc.num_distinct_files = (ups + leaves) * 3 / 2;
  wc.num_queries = queries;
  wc.seed = 2004;
  auto trace = workload::GenerateTrace(wc);

  sim::SerialExecutor simulator;
  sim::Network network(&simulator,
                       std::make_unique<sim::ConstantLatency>(
                           20 * sim::kMillisecond),
                       2);
  gnutella::TopologyConfig tc;
  tc.num_ultrapeers = ups;
  tc.num_leaves = leaves;
  tc.protocol.ultrapeer_degree = 8;
  tc.protocol.flood_ttl = 2;
  tc.protocol.leaf_publish = mode;
  tc.seed = 7;
  gnutella::GnutellaNetwork gnet(&network, tc);
  for (size_t i = 0; i < wc.num_nodes; ++i) {
    gnet.node(i)->SetSharedFiles(trace.FilenamesOfNode(i));
  }
  gnet.PublishAllFiles();
  simulator.Run();

  ModeResult out;
  out.publish_bytes = network.metrics().by_tag.count("gnutella.publish")
                          ? network.metrics().by_tag.at("gnutella.publish").bytes
                          : 0;
  gnet.metrics() = gnutella::GnutellaMetrics{};
  uint64_t results = 0;
  for (size_t q = 0; q < trace.queries.size(); ++q) {
    gnet.ultrapeer(q % ups)->StartQuery(
        trace.queries[q].text,
        [&results](const std::vector<gnutella::QueryResult>& rs) {
          results += rs.size();
        });
  }
  simulator.Run();
  out.query_messages = gnet.metrics().query_messages;
  out.hit_messages = gnet.metrics().query_hit_messages;
  out.leaf_forwards = gnet.metrics().qrp_leaf_forwards;
  out.false_positives = gnet.metrics().qrp_false_positives;
  out.results = results;
  out.queries = trace.queries.size();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ParseScaleArg(argc, argv);
  auto full = RunModeFresh(gnutella::LeafPublishMode::kFullList, scale);
  auto qrp = RunModeFresh(gnutella::LeafPublishMode::kBloomFilter, scale);

  TablePrinter table({"metric", "full file lists", "QRP Bloom filters"});
  table.AddRow({"leaf publish bytes", FormatI((long long)full.publish_bytes),
                FormatI((long long)qrp.publish_bytes)});
  table.AddRow({"query messages (UP mesh)",
                FormatI((long long)full.query_messages),
                FormatI((long long)qrp.query_messages)});
  table.AddRow({"UP->leaf forwards", FormatI((long long)full.leaf_forwards),
                FormatI((long long)qrp.leaf_forwards)});
  table.AddRow({"  of which false positives",
                FormatI((long long)full.false_positives),
                FormatI((long long)qrp.false_positives)});
  table.AddRow({"hit messages", FormatI((long long)full.hit_messages),
                FormatI((long long)qrp.hit_messages)});
  table.AddRow({"results delivered", FormatI((long long)full.results),
                FormatI((long long)qrp.results)});
  table.Print();
  std::printf(
      "\nexpectation: QRP cuts publish bytes by %.1fx at equal recall, at\n"
      "the price of per-query leaf forwards (plus Bloom false positives).\n",
      qrp.publish_bytes ? double(full.publish_bytes) / qrp.publish_bytes : 0.0);
  return 0;
}
