// Declarative query-plan demo: build, print, serialize, rewrite and run
// QueryPlans over a live simulated DHT deployment.
//
//   ./build/plan_search_demo
//
// Shows (1) the two search strategies as compiled plans, (2) the
// posting-size rewrite pass choosing the cheap chain order, and (3) a plan
// shape the old hardwired API could not express: a filter-pushdown keyword
// join ending in TopK over a fetched Item column.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dht/builder.h"
#include "pier/node.h"
#include "pier/plan.h"
#include "piersearch/publisher.h"
#include "piersearch/schemas.h"
#include "piersearch/search_engine.h"

using namespace pierstack;

int main() {
  sim::SerialExecutor simulator;
  sim::Network network(&simulator,
                       std::make_unique<sim::ConstantLatency>(
                           10 * sim::kMillisecond),
                       7);
  dht::DhtDeployment dht(&network, 16, dht::DhtOptions{}, 11);
  pier::PierMetrics metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  for (size_t i = 0; i < dht.size(); ++i) {
    piers.push_back(std::make_unique<pier::PierNode>(dht.node(i), &metrics));
  }

  // A small library: 40 files, some "live" takes, with varied sizes.
  piersearch::Publisher publisher(piers[0].get());
  piersearch::PublishOptions popts;
  popts.inverted = true;
  popts.inverted_cache = true;
  std::vector<piersearch::FileToPublish> files;
  for (uint64_t i = 0; i < 40; ++i) {
    files.push_back(piersearch::FileToPublish{
        "madonna concert take" + std::to_string(i) +
            (i % 3 == 0 ? " live.mp3" : " studio.mp3"),
        (1 + i) * 1024, static_cast<uint32_t>(i % 16), 6346});
  }
  publisher.PublishFiles(files, popts);
  piers[0]->FlushPublishQueues();
  simulator.Run();

  // 1. The search strategies ARE plans now: print what Search compiles.
  piersearch::SearchOptions options;
  options.fetch_items = false;
  pier::QueryPlan dj = piersearch::BuildDistributedJoinPlan(
      {"madonna", "concert"}, options);
  std::printf("== kDistributedJoin compiles to ==\n%s\n",
              dj.ToString().c_str());
  pier::QueryPlan ic = piersearch::BuildInvertedCachePlan(
      {"madonna", "live"}, options);
  std::printf("== kInvertedCache compiles to ==\n%s\n",
              ic.ToString().c_str());

  // 2. Plans are wire objects: serialize, ship, decode, run.
  std::vector<uint8_t> image = ic.Serialize();
  auto decoded = pier::QueryPlan::Deserialize(image);
  if (!decoded.ok()) {
    std::printf("plan decode failed: %s\n",
                decoded.status().ToString().c_str());
    return 1;
  }
  std::printf("IC plan round-trips through %zu wire bytes\n\n", image.size());

  size_t ic_hits = 0;
  piers[3]->ExecutePlan(decoded.value(),
                        [&](Status s, std::vector<pier::Tuple> rows,
                            const pier::Completeness&) {
                          if (s.ok()) ic_hits = rows.size();
                        });
  simulator.Run();
  std::printf("decoded IC plan found %zu \"madonna live\" files\n\n",
              ic_hits);

  // 3. The new expressiveness: push the "live" filter into the cache
  // owner, join with "concert", fetch Item tuples, keep the 5 largest.
  pier::QueryPlan topk =
      pier::PlanBuilder()
          .IndexScan(piersearch::InvertedCacheSchema().table_name(),
                     pier::Value(std::string("madonna")),
                     piersearch::kIcKeyword, piersearch::kIcFileId)
          .Filter(pier::Expr::Contains(
              pier::Expr::Column(piersearch::kIcFulltext), "live"))
          .RehashJoin(piersearch::InvertedSchema().table_name(),
                      pier::Value(std::string("concert")),
                      piersearch::kInvKeyword, piersearch::kInvFileId)
          .FetchJoin(piersearch::ItemSchema().table_name(),
                     piersearch::kItemFileId)
          .TopK(piersearch::kItemFilesize, 5)
          .Build();
  std::printf("== filter-pushdown + TopK plan ==\n%s\n",
              topk.ToString().c_str());
  std::vector<pier::Tuple> top;
  piers[5]->ExecutePlan(topk, [&](Status s, std::vector<pier::Tuple> rows,
                                  const pier::Completeness&) {
    if (s.ok()) top = std::move(rows);
  });
  simulator.Run();
  std::printf("5 largest live takes:\n");
  for (const pier::Tuple& t : top) {
    std::printf("  %-36s %8llu bytes\n",
                std::string(t.at(piersearch::kItemFilename).AsString())
                    .c_str(),
                static_cast<unsigned long long>(
                    t.at(piersearch::kItemFilesize).AsUint64()));
  }

  // 4. The optimizer as a rewrite pass, fed by a local size oracle.
  pier::QueryPlan chain = pier::PlanBuilder()
                              .IndexScan("inverted", pier::Value(
                                                         std::string("madonna")))
                              .RehashJoin("inverted",
                                          pier::Value(std::string("live")))
                              .Build();
  bool changed = pier::ReorderByPostingSize(
      &chain, [](const std::string&, const pier::Value& key) {
        return key.AsString() == "live" ? size_t{14} : size_t{40};
      });
  std::printf("\nposting-size rewrite reordered the chain: %s\n%s",
              changed ? "yes" : "no", chain.ToString().c_str());

  bool demo_ok = ic_hits == 14 && top.size() == 5 && changed;
  std::printf("\nplan_search_demo %s\n", demo_ok ? "PASSED" : "FAILED");
  return demo_ok ? 0 : 1;
}
