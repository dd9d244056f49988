// Declarative query plans: serializable operator graphs executed over the
// DHT (paper Sections 3–4: the DHT hosts a *general* relational query
// processor — queries arrive as operator graphs, not hardwired code paths).
//
// A QueryPlan is a DAG of operator nodes held in a flat node pool:
//   IndexScan(ns, key)  — posting-list scan at the key's owner,
//   Filter(Expr)        — serializable predicate over the stored tuple,
//   Project(cols)       — column subset carried onward as payload,
//   RehashJoin          — distributed equi-join with the next keyword's
//                         posting list (Figure 2's join chain),
//   FetchJoin(ns)       — resolve surviving join keys to full tuples
//                         (owner-coalesced, the plans' final join),
//   GroupAggregate / TopK / Limit — query-node finishing operators.
//
// Predicates and projections are a small serializable Expr tree (column
// refs, literals, comparisons, boolean connectives, substring match)
// instead of std::function, so whole plans cross the wire: a plan is built
// once with PlanBuilder, shipped stage by stage over the rehash/credit
// transport, and executed by PierNode::ExecutePlan (see plan_exec.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "pier/ops.h"
#include "pier/schema.h"

namespace pierstack::pier {

/// Serializable scalar expression over one tuple. Value semantics: copying
/// an Expr deep-copies its (usually tiny) tree.
class Expr {
 public:
  enum class Kind : uint8_t {
    kTrue = 0,      ///< Constant true (the no-op filter).
    kColumn = 1,    ///< Tuple column reference.
    kLiteral = 2,   ///< Constant Value.
    kEq = 3,
    kNe = 4,
    kLt = 5,
    kLe = 6,
    kGt = 7,
    kGe = 8,
    kAnd = 9,       ///< N-ary conjunction.
    kOr = 10,       ///< N-ary disjunction.
    kNot = 11,
    /// Case-insensitive substring test: the needle (child 1) occurs in the
    /// lower-cased haystack string (child 0) — exactly the
    /// FilenameMatchesQuery rule the InvertedCache plan filters with.
    kContains = 12,
  };

  Expr() : kind_(Kind::kTrue) {}

  static Expr True() { return Expr(); }
  static Expr Column(size_t index);
  static Expr Literal(Value v);
  static Expr Compare(Kind op, Expr lhs, Expr rhs);
  static Expr Eq(Expr l, Expr r) { return Compare(Kind::kEq, std::move(l), std::move(r)); }
  static Expr Ne(Expr l, Expr r) { return Compare(Kind::kNe, std::move(l), std::move(r)); }
  static Expr Lt(Expr l, Expr r) { return Compare(Kind::kLt, std::move(l), std::move(r)); }
  static Expr Le(Expr l, Expr r) { return Compare(Kind::kLe, std::move(l), std::move(r)); }
  static Expr Gt(Expr l, Expr r) { return Compare(Kind::kGt, std::move(l), std::move(r)); }
  static Expr Ge(Expr l, Expr r) { return Compare(Kind::kGe, std::move(l), std::move(r)); }
  static Expr And(std::vector<Expr> children);
  static Expr Or(std::vector<Expr> children);
  static Expr Not(Expr child);
  static Expr Contains(Expr haystack, std::string needle);

  Kind kind() const { return kind_; }
  bool is_true() const { return kind_ == Kind::kTrue; }
  size_t column() const { return column_; }
  const Value& literal() const { return literal_; }
  const std::vector<Expr>& children() const { return children_; }

  /// Evaluates over `t`. Out-of-range columns and type mismatches yield
  /// Value() (uint64 0), which is falsy — a malformed predicate filters
  /// everything rather than crashing a remote stage.
  Value Eval(const Tuple& t) const;
  /// Eval truthiness: non-zero numerics, non-empty strings.
  bool Matches(const Tuple& t) const;

  size_t WireSize() const;
  void SerializeTo(BytesWriter* w) const;
  /// Depth-capped (64) so a hostile image cannot blow the stack.
  static Result<Expr> Deserialize(BytesReader* r, int depth = 0);

  std::string ToString() const;

  friend bool operator==(const Expr& a, const Expr& b);
  friend bool operator!=(const Expr& a, const Expr& b) { return !(a == b); }

 private:
  Kind kind_;
  uint32_t column_ = 0;
  Value literal_;
  std::vector<Expr> children_;
};

/// One operator node of a QueryPlan. Which fields are meaningful depends on
/// `kind`; unused fields keep their defaults (and serialize as such, so
/// structural equality is well-defined).
struct PlanNode {
  enum class Kind : uint8_t {
    kIndexScan = 0,
    kFilter = 1,
    kProject = 2,
    kRehashJoin = 3,
    kFetchJoin = 4,
    kGroupAggregate = 5,
    kTopK = 6,
    kLimit = 7,
  };

  Kind kind = Kind::kIndexScan;
  std::string ns;        ///< kIndexScan / kFetchJoin: table namespace.
  Value key;             ///< kIndexScan: DHT key value.
  uint32_t key_col = 0;  ///< kIndexScan: key column; kFetchJoin: index field.
  uint32_t join_col = 1; ///< kIndexScan: join attribute column.
  Expr expr;             ///< kFilter predicate.
  std::vector<uint32_t> cols;       ///< kProject / kGroupAggregate groups.
  std::vector<AggregateSpec> aggs;  ///< kGroupAggregate.
  uint32_t sort_col = 0;            ///< kTopK.
  uint64_t n = 0;                   ///< kTopK k / kLimit cap.
  bool descending = true;           ///< kTopK order.
  std::vector<uint32_t> children;   ///< Indices into QueryPlan::nodes.

  friend bool operator==(const PlanNode& a, const PlanNode& b);
  friend bool operator!=(const PlanNode& a, const PlanNode& b) {
    return !(a == b);
  }
};

/// A query plan: operator nodes in a flat pool, `root` the output operator.
struct QueryPlan {
  std::vector<PlanNode> nodes;
  uint32_t root = 0;

  bool empty() const { return nodes.empty(); }
  const PlanNode& at(uint32_t i) const { return nodes[i]; }
  /// PlanBuilder's invariant: every child index is below its parent's, so
  /// every walk down the plan ends and stays in range. Deserialize and
  /// CompilePlan both refuse a plan without it.
  bool ChildrenPrecedeParents() const;

  size_t WireSize() const;
  void SerializeTo(BytesWriter* w) const;
  std::vector<uint8_t> Serialize() const;
  static Result<QueryPlan> Deserialize(BytesReader* r);
  static Result<QueryPlan> Deserialize(const std::vector<uint8_t>& image);

  std::string ToString() const;

  friend bool operator==(const QueryPlan& a, const QueryPlan& b) {
    return a.root == b.root && a.nodes == b.nodes;
  }
  friend bool operator!=(const QueryPlan& a, const QueryPlan& b) {
    return !(a == b);
  }
};

/// Fluent plan construction. Each call wraps or extends the current root:
///
///   QueryPlan plan = PlanBuilder()
///       .IndexScan("inverted", Value("madonna"))
///       .RehashJoin("inverted", Value("prayer"))
///       .FetchJoin("item")
///       .TopK(kItemFilesize, 10)
///       .Limit(100)
///       .Build();
///
/// Column-reference contract: a Filter/Project adjacent to an IndexScan
/// executes AT the scan's owner over the stored tuple (filter pushdown);
/// operators above the distributed portion run at the query node over
/// [join_key, payload...] rows — column 0 is the join key — and operators
/// above a FetchJoin see the fetched table's own layout.
class PlanBuilder {
 public:
  PlanBuilder& IndexScan(std::string ns, Value key, size_t key_col = 0,
                         size_t join_col = 1);
  PlanBuilder& Filter(Expr predicate);
  PlanBuilder& Project(std::vector<uint32_t> cols);
  /// Joins the current plan with a fresh IndexScan on the join attribute —
  /// the next link of the keyword chain.
  PlanBuilder& RehashJoin(std::string ns, Value key, size_t key_col = 0,
                          size_t join_col = 1);
  PlanBuilder& FetchJoin(std::string ns, size_t key_col = 0);
  PlanBuilder& GroupAggregate(std::vector<uint32_t> group_cols,
                              std::vector<AggregateSpec> aggs);
  PlanBuilder& TopK(size_t col, size_t k, bool descending = true);
  PlanBuilder& Limit(size_t n);

  QueryPlan Build() { return std::move(plan_); }

 private:
  uint32_t Add(PlanNode node);
  QueryPlan plan_;
  bool has_root_ = false;
};

/// Posting-list size oracle fed by ProbePostingSize results (or the local
/// store, in tests).
using PostingSizeFn =
    std::function<size_t(const std::string& ns, const Value& key)>;

/// The (ns, key) pairs a size-driven rewrite of `plan` would need probed:
/// every chain IndexScan key, plus — for a single-site scan filtered by
/// substring terms — each Contains literal (a candidate routing key).
std::vector<std::pair<std::string, Value>> CollectProbeTargets(
    const QueryPlan& plan);

/// The "smaller posting lists first" optimization as a plan-rewrite pass
/// (paper Section 3.2). Reorders an undecorated RehashJoin chain's scan
/// keys smallest-first, and re-roots a single-site Contains-filtered scan
/// at its cheapest term (the InvertedCache site choice). Plans whose chain
/// stages carry filters or projections are left untouched (stage dressing
/// is position-dependent). Returns true when the plan changed.
bool ReorderByPostingSize(QueryPlan* plan, const PostingSizeFn& posting_size);

}  // namespace pierstack::pier
