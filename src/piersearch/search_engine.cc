#include "piersearch/search_engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/tokenizer.h"
#include "piersearch/schemas.h"

namespace pierstack::piersearch {

using pier::Expr;
using pier::PlanBuilder;
using pier::QueryPlan;
using pier::Tuple;
using pier::Value;

QueryPlan BuildDistributedJoinPlan(const std::vector<std::string>& terms,
                                   const SearchOptions& options) {
  // Figure 2: one IndexScan per keyword chained with RehashJoins on the
  // fileID attribute, then the final Item join and the answer cap.
  PlanBuilder b;
  b.IndexScan(InvertedSchema().table_name(), Value(terms[0]), kInvKeyword,
              kInvFileId);
  for (size_t i = 1; i < terms.size(); ++i) {
    b.RehashJoin(InvertedSchema().table_name(), Value(terms[i]), kInvKeyword,
                 kInvFileId);
  }
  if (options.fetch_items) {
    b.FetchJoin(ItemSchema().table_name(), kItemFileId);
  }
  b.Limit(options.max_results);
  return b.Build();
}

QueryPlan BuildInvertedCachePlan(const std::vector<std::string>& terms,
                                 const SearchOptions& options) {
  // Figure 3: the whole query runs at a single node hosting one term; the
  // remaining terms push down as a substring filter over the cached
  // fulltext, and (fileID, fulltext) travel back as the entry payload.
  PlanBuilder b;
  b.IndexScan(InvertedCacheSchema().table_name(), Value(terms[0]),
              kIcKeyword, kIcFileId);
  if (terms.size() > 1) {
    std::vector<Expr> conjuncts;
    conjuncts.reserve(terms.size() - 1);
    for (size_t i = 1; i < terms.size(); ++i) {
      conjuncts.push_back(
          Expr::Contains(Expr::Column(kIcFulltext), terms[i]));
    }
    b.Filter(Expr::And(std::move(conjuncts)));
  }
  b.Project({kIcFileId, kIcFulltext});
  if (options.fetch_items) {
    b.FetchJoin(ItemSchema().table_name(), kItemFileId);
  }
  b.Limit(options.max_results);
  return b.Build();
}

QueryPlan BuildSearchPlan(const std::vector<std::string>& terms,
                          const SearchOptions& options) {
  return options.strategy == SearchStrategy::kInvertedCache
             ? BuildInvertedCachePlan(terms, options)
             : BuildDistributedJoinPlan(terms, options);
}

void SearchEngine::Search(const std::string& query_text,
                          const SearchOptions& options,
                          SearchCallback callback) {
  std::vector<std::string> terms = ExtractUniqueKeywords(query_text);
  if (terms.empty()) {
    callback(Status::InvalidArgument("no indexable terms in query"), {},
             pier::Completeness{});
    return;
  }
  QueryPlan plan = BuildSearchPlan(terms, options);
  if (!options.order_by_posting_size || terms.size() == 1) {
    RunPlan(std::move(plan), options, std::move(callback));
    return;
  }
  // Optimizer probes: learn each candidate key's posting size, then run
  // the "smaller posting lists first" rewrite pass over the plan (paper:
  // "optimized to compute smaller posting lists first").
  auto targets = pier::CollectProbeTargets(plan);
  if (targets.empty()) {
    RunPlan(std::move(plan), options, std::move(callback));
    return;
  }
  struct ProbeState {
    size_t remaining;
    QueryPlan plan;
    std::map<std::pair<std::string, Value>, size_t> sizes;
  };
  auto state = std::make_shared<ProbeState>();
  state->remaining = targets.size();
  state->plan = std::move(plan);
  for (const auto& [ns, key] : targets) {
    pier_->ProbePostingSize(
        ns, key,
        [this, state, ns = ns, key = key, options,
         callback](Status s, size_t size) mutable {
          // A failed probe sorts last, exactly like the pre-plan path.
          state->sizes[{ns, key}] = s.ok() ? size : SIZE_MAX;
          if (--state->remaining > 0) return;
          pier::ReorderByPostingSize(
              &state->plan,
              [&state](const std::string& pns, const Value& pkey) {
                auto it = state->sizes.find({pns, pkey});
                return it == state->sizes.end() ? SIZE_MAX : it->second;
              });
          RunPlan(std::move(state->plan), options, std::move(callback));
        });
  }
}

void SearchEngine::RunPlan(QueryPlan plan, const SearchOptions& options,
                           SearchCallback callback) {
  bool fetched = options.fetch_items;
  pier_->ExecutePlan(
      std::move(plan),
      [fetched, callback = std::move(callback)](
          Status s, std::vector<Tuple> rows,
          const pier::Completeness& completeness) mutable {
        // A timed-out or shed query still delivers whatever rows the plan
        // materialized — the completeness record labels the shortfall, so
        // no early-return that would zero out a partial answer.
        std::vector<SearchHit> hits;
        hits.reserve(rows.size());
        for (const Tuple& t : rows) {
          SearchHit h;
          if (fetched) {
            // Item tuples out of the plan's FetchJoin.
            if (t.arity() < 5) continue;
            h.file_id = t.at(kItemFileId).AsUint64();
            h.filename = std::string(t.at(kItemFilename).AsString());
            h.size_bytes = t.at(kItemFilesize).AsUint64();
            h.address = static_cast<uint32_t>(t.at(kItemAddress).AsUint64());
            h.port = static_cast<uint16_t>(t.at(kItemPort).AsUint64());
          } else {
            // Entry rows [fileID, payload...]; the InvertedCache payload
            // carries the fulltext (= filename) at column 2.
            if (t.arity() < 1 ||
                t.at(0).type() != pier::ValueType::kUint64) {
              continue;
            }
            h.file_id = t.at(0).AsUint64();
            if (t.arity() >= 3 && t.at(2).is_string()) {
              h.filename = std::string(t.at(2).AsString());
            }
          }
          hits.push_back(std::move(h));
        }
        callback(std::move(s), std::move(hits), completeness);
      },
      options.timeout);
}

}  // namespace pierstack::piersearch
