// Plan compilation and query-node finishing: lowers a declarative
// QueryPlan (plan.h) into the staged form PierNode's distributed engine
// ships over the DHT, plus the finisher nodes the query node applies to the
// rows the stages return.
//
// In the staged form every distributed stage is an index scan at the stage
// key's owner with an optional serializable Expr filter and payload
// projection, symmetric-hash-joined against the incoming rows. Rows are
// [join_key, payload...] Tuples from the stage scan to the plan callback,
// and travel between nodes as their TupleBatch image. Join chains are the
// two-table special case. PierNode::ExecutePlan is the one entry point
// that compiles and runs a plan.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "pier/ops.h"
#include "pier/plan.h"

namespace pierstack::pier {

/// One distributed stage of a compiled plan: scan (ns, key) at the owner,
/// filter with `filter`, and make each surviving tuple a [join_key,
/// payload...] row whose join key is its `join_col` column. Stage 0 seeds
/// the row list; a later stage keeps the incoming rows whose join key one
/// of its own rows shares.
struct ExecStage {
  std::string ns;
  Value key;
  size_t key_col = 0;
  size_t join_col = 1;
  /// Columns carried as row payload (stage 0 only contributes payload).
  std::vector<size_t> payload_cols;
  /// Predicate over the stored tuple (kTrue = admit everything).
  Expr filter;

  size_t WireSize() const;
};

/// What the distributed engine executes: the stage chain plus the final
/// answer cap, applied at the last stage and again as replies accumulate
/// at the query node.
struct StagedQuery {
  enum class Cap : uint8_t {
    /// No cap: query-node finishers need the full surviving set (a TopK
    /// over a fetched column must see every candidate; truncating at the
    /// last stage would pick arrival order).
    kNone,
    /// The first `limit` rows.
    kRows,
    /// Rows up to `limit` distinct join keys, dropping a row whose key is
    /// already kept: a FetchJoin reads only the join key (column 0), so
    /// duplicate keys must not use up the cap.
    kJoinKeys,
  };
  std::vector<ExecStage> stages;
  size_t limit = SIZE_MAX;
  Cap cap = Cap::kRows;
};

/// A StagedQuery's answer cap over rows arriving in any number of batches.
class RowCap {
 public:
  RowCap(StagedQuery::Cap cap, size_t limit) : cap_(cap), limit_(limit) {}

  /// Whether the cap already holds `limit` rows (or distinct join keys).
  bool full() const {
    return cap_ != StagedQuery::Cap::kNone && kept_ >= limit_;
  }
  /// Whether to keep `row`, counting it when kept. Under kJoinKeys the row
  /// needs a join key and stays referenced as its key's witness.
  bool Admit(const Tuple& row);
  /// Drops from `rows`, in order, every row Admit refuses.
  void Apply(std::vector<Tuple>* rows);

 private:
  StagedQuery::Cap cap_;
  size_t limit_;
  size_t kept_ = 0;
  JoinTable keys_;  ///< kJoinKeys: the first kept row of each join key.
};

/// A fully compiled plan. Row layout through the pipeline:
///  * distributed stages produce [join_key, payload...] rows;
///  * the `entry_ops` finishers run over those rows;
///  * with `fetch`, the surviving rows' join keys (column 0) are resolved
///    through one owner-coalesced FetchMany against `fetch_ns`, and the
///    `tuple_ops` finishers run over the fetched tuples.
/// Finishers are the plan's own Filter / Project / GroupAggregate / TopK /
/// Limit nodes, in execution order.
struct CompiledPlan {
  StagedQuery staged;
  std::vector<PlanNode> entry_ops;
  bool fetch = false;
  std::string fetch_ns;
  size_t fetch_key_col = 0;
  std::vector<PlanNode> tuple_ops;
  /// Final answer cap: an OUTERMOST Limit, hoisted so the staged engine
  /// can truncate at the last stage and the fetch leg can bound its key
  /// set. A Limit beneath other finishers stays a finisher (it cuts the
  /// input those finishers see, not the answer).
  size_t limit = SIZE_MAX;
};

/// Lowers `plan` into its executable form. Fails with InvalidArgument for
/// shapes the distributed engine cannot run (a non-scan join input, a
/// FetchJoin below a join, an empty plan, a child index that does not
/// precede its parent, ...).
Result<CompiledPlan> CompilePlan(const QueryPlan& plan);

/// Runs `finishers` over `rows` in order. A column past a row's arity
/// reads as Value(), as Expr::Eval reads it.
std::vector<Tuple> ApplyFinishers(std::vector<Tuple> rows,
                                  const std::vector<PlanNode>& finishers);

}  // namespace pierstack::pier
