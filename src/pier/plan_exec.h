// Plan compilation and query-node finishing: lowers a declarative
// QueryPlan (plan.h) into the staged form PierNode's distributed engine
// ships over the DHT, plus the local Volcano operators (ops.h) applied at
// the query node once the distributed stages complete.
//
// In the staged form every distributed stage is an index scan at the stage
// key's owner with an optional serializable Expr filter and payload
// projection, symmetric-hash-joined against the incoming entry list. Join
// chains are the two-table special case. PierNode::ExecutePlan is the one
// entry point that compiles and runs a plan.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "pier/ops.h"
#include "pier/plan.h"

namespace pierstack::pier {

/// One distributed stage of a compiled plan: scan (ns, key) at the owner,
/// filter with `filter`, and join against the incoming entry list on
/// `join_col` (stage 0 seeds the list instead).
struct ExecStage {
  std::string ns;
  Value key;
  size_t key_col = 0;
  size_t join_col = 1;
  /// Columns carried as entry payload (stage 0 only contributes payload).
  std::vector<size_t> payload_cols;
  /// Predicate over the stored tuple (kTrue = admit everything).
  Expr filter;

  size_t WireSize() const;
};

/// What the distributed engine executes: the stage chain plus the final
/// answer cap. `cap_results` is cleared when query-node finishers need the
/// full surviving set (a TopK over a fetched column must see every
/// candidate; truncating at the last stage would pick arrival order).
struct StagedQuery {
  std::vector<ExecStage> stages;
  size_t limit = SIZE_MAX;
  bool cap_results = true;
};

/// One query-node finishing operator, applied over materialized rows via
/// the Volcano operators of ops.h.
struct LocalOpSpec {
  enum class Kind : uint8_t {
    kFilter = 0,
    kProject = 1,
    kGroupAggregate = 2,
    kTopK = 3,
    kLimit = 4,
  };
  Kind kind = Kind::kFilter;
  Expr expr;                        ///< kFilter.
  std::vector<size_t> cols;         ///< kProject / kGroupAggregate groups.
  std::vector<AggregateSpec> aggs;  ///< kGroupAggregate.
  size_t sort_col = 0;              ///< kTopK.
  size_t n = 0;                     ///< kTopK k / kLimit cap.
  bool descending = true;           ///< kTopK.
};

/// A fully compiled plan. Row layout through the pipeline:
///  * distributed stages produce entries, materialized at the query node
///    as [join_key, payload...] rows;
///  * `entry_ops` run over those rows;
///  * with `fetch`, the surviving rows' join keys (column 0) are resolved
///    through one owner-coalesced FetchMany against `fetch_ns`, and
///    `tuple_ops` run over the fetched tuples.
struct CompiledPlan {
  StagedQuery staged;
  std::vector<LocalOpSpec> entry_ops;
  bool fetch = false;
  std::string fetch_ns;
  size_t fetch_key_col = 0;
  std::vector<LocalOpSpec> tuple_ops;
  /// Final answer cap: an OUTERMOST kLimit, hoisted so the staged engine
  /// can truncate at the last stage and the fetch leg can bound its key
  /// set. A Limit beneath other finishers stays a positional op (it cuts
  /// the input those finishers see, not the answer).
  size_t limit = SIZE_MAX;
};

/// Lowers `plan` into its executable form. Fails with InvalidArgument for
/// shapes the distributed engine cannot run (a non-scan join input, a
/// FetchJoin below a join, an empty plan, ...).
Result<CompiledPlan> CompilePlan(const QueryPlan& plan);

/// Runs `ops` over `input` through ops.h's operator tree; returns the
/// surviving rows.
std::vector<Tuple> ApplyLocalOps(std::vector<Tuple> input,
                                 const std::vector<LocalOpSpec>& ops);

}  // namespace pierstack::pier
