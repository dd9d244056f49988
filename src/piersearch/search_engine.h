// SearchEngine: PIERSearch's query side (Figure 1's Search Engine).
//
// Both strategies (paper Section 3.2) are *compiled into declarative query
// plans* (pier/plan.h) and executed through PierNode::ExecutePlan:
//  * kDistributedJoin — the Figure 2 plan: an IndexScan/RehashJoin chain
//    along the keyword owners, symmetric-hash-joining at each hop, ending
//    in a FetchJoin that resolves Item tuples for the surviving fileIDs.
//  * kInvertedCache  — the Figure 3 plan: one IndexScan at a single node
//    hosting one of the terms, the remaining terms pushed down as a
//    serializable Contains filter over the cached fulltext.
// The paper's "smaller posting lists first" optimization runs as a plan
// rewrite (pier::ReorderByPostingSize) fed by posting-size probes.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "pier/node.h"
#include "pier/plan.h"

namespace pierstack::piersearch {

enum class SearchStrategy {
  kDistributedJoin,
  kInvertedCache,
};

/// One search answer (a decorated Item tuple).
struct SearchHit {
  uint64_t file_id = 0;
  std::string filename;
  uint64_t size_bytes = 0;
  uint32_t address = 0;  ///< Sharing host (sim::HostId in this build).
  uint16_t port = 0;
};

struct SearchOptions {
  SearchStrategy strategy = SearchStrategy::kDistributedJoin;
  /// Probe posting-list sizes first and rewrite the plan smallest-first
  /// (the paper's SHJ optimization; also picks the cheapest single site
  /// for the InvertedCache plan instead of the first term).
  bool order_by_posting_size = false;
  /// Fetch full Item tuples for matches (the plans' final FetchJoin). Off,
  /// the engine returns fileIDs only (filename present only with
  /// InvertedCache's fulltext).
  bool fetch_items = true;
  size_t max_results = 200;
  sim::SimTime timeout = 30 * sim::kSecond;
};

/// Compiles `terms` into the strategy's query plan. Exposed for tests,
/// benches, and deployments that want to rewrite the plan before running
/// it through PierNode::ExecutePlan.
pier::QueryPlan BuildDistributedJoinPlan(
    const std::vector<std::string>& terms, const SearchOptions& options);
pier::QueryPlan BuildInvertedCachePlan(
    const std::vector<std::string>& terms, const SearchOptions& options);
pier::QueryPlan BuildSearchPlan(const std::vector<std::string>& terms,
                                const SearchOptions& options);

class SearchEngine {
 public:
  /// Search results carry the query's pier::Completeness record: a crash,
  /// straggler, or shed plan mid-query yields a PARTIAL hit list, and the
  /// record says so (and why) instead of the answer silently shrinking.
  using SearchCallback = std::function<void(
      Status, std::vector<SearchHit>, const pier::Completeness&)>;

  explicit SearchEngine(pier::PierNode* pier) : pier_(pier) {}

  /// Runs a keyword search for `query_text` (tokenized and stop-word
  /// filtered like the Publisher side). Fails fast with InvalidArgument if
  /// no indexable terms remain.
  void Search(const std::string& query_text, const SearchOptions& options,
              SearchCallback callback);

  /// Runs an already-built plan with the engine's hit mapping — the
  /// escape hatch for plan shapes the strategy enum cannot express.
  void RunPlan(pier::QueryPlan plan, const SearchOptions& options,
               SearchCallback callback);

 private:
  pier::PierNode* pier_;
};

}  // namespace pierstack::piersearch
