#include "pier/plan.h"

#include <algorithm>
#include <cassert>

#include "common/tokenizer.h"

namespace pierstack::pier {

// ---------------------------------------------------------------------------
// Expr
// ---------------------------------------------------------------------------

Expr Expr::Column(size_t index) {
  Expr e;
  e.kind_ = Kind::kColumn;
  e.column_ = static_cast<uint32_t>(index);
  return e;
}

Expr Expr::Literal(Value v) {
  Expr e;
  e.kind_ = Kind::kLiteral;
  e.literal_ = std::move(v);
  return e;
}

Expr Expr::Compare(Kind op, Expr lhs, Expr rhs) {
  assert(op >= Kind::kEq && op <= Kind::kGe);
  Expr e;
  e.kind_ = op;
  e.children_.reserve(2);
  e.children_.push_back(std::move(lhs));
  e.children_.push_back(std::move(rhs));
  return e;
}

Expr Expr::And(std::vector<Expr> children) {
  if (children.empty()) return True();  // vacuous conjunction
  if (children.size() == 1) return std::move(children[0]);
  Expr e;
  e.kind_ = Kind::kAnd;
  e.children_ = std::move(children);
  return e;
}

Expr Expr::Or(std::vector<Expr> children) {
  if (children.empty()) return Literal(Value(uint64_t{0}));  // vacuously false
  if (children.size() == 1) return std::move(children[0]);
  Expr e;
  e.kind_ = Kind::kOr;
  e.children_ = std::move(children);
  return e;
}

Expr Expr::Not(Expr child) {
  Expr e;
  e.kind_ = Kind::kNot;
  e.children_.push_back(std::move(child));
  return e;
}

Expr Expr::Contains(Expr haystack, std::string needle) {
  Expr e;
  e.kind_ = Kind::kContains;
  e.children_.reserve(2);
  e.children_.push_back(std::move(haystack));
  e.children_.push_back(Literal(Value(std::move(needle))));
  return e;
}

namespace {

bool Truthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kUint64:
      return v.AsUint64() != 0;
    case ValueType::kInt64:
      return v.AsInt64() != 0;
    case ValueType::kDouble:
      return v.AsDouble() != 0.0;
    case ValueType::kString:
      return !v.AsString().empty();
  }
  return false;
}

Value Bool(bool b) { return Value(uint64_t{b ? 1u : 0u}); }

/// Three-way comparison usable across the numeric types (strings compare
/// only against strings; a cross-kind comparison is "incomparable" and
/// fails every operator).
enum class CmpResult { kLess, kEqual, kGreater, kIncomparable };

CmpResult CompareValues(const Value& a, const Value& b) {
  if (a.type() == b.type()) {
    if (a == b) return CmpResult::kEqual;
    return a < b ? CmpResult::kLess : CmpResult::kGreater;
  }
  if (a.is_string() || b.is_string()) return CmpResult::kIncomparable;
  auto widen = [](const Value& v) {
    switch (v.type()) {
      case ValueType::kUint64:
        return static_cast<double>(v.AsUint64());
      case ValueType::kInt64:
        return static_cast<double>(v.AsInt64());
      default:
        return v.AsDouble();
    }
  };
  double x = widen(a), y = widen(b);
  if (x == y) return CmpResult::kEqual;
  return x < y ? CmpResult::kLess : CmpResult::kGreater;
}

}  // namespace

Value Expr::Eval(const Tuple& t) const {
  switch (kind_) {
    case Kind::kTrue:
      return Bool(true);
    case Kind::kColumn:
      return column_ < t.arity() ? t.at(column_) : Value();
    case Kind::kLiteral:
      return literal_;
    case Kind::kEq:
    case Kind::kNe:
    case Kind::kLt:
    case Kind::kLe:
    case Kind::kGt:
    case Kind::kGe: {
      CmpResult c = CompareValues(children_[0].Eval(t), children_[1].Eval(t));
      if (c == CmpResult::kIncomparable) return Bool(kind_ == Kind::kNe);
      switch (kind_) {
        case Kind::kEq: return Bool(c == CmpResult::kEqual);
        case Kind::kNe: return Bool(c != CmpResult::kEqual);
        case Kind::kLt: return Bool(c == CmpResult::kLess);
        case Kind::kLe: return Bool(c != CmpResult::kGreater);
        case Kind::kGt: return Bool(c == CmpResult::kGreater);
        default:        return Bool(c != CmpResult::kLess);
      }
    }
    case Kind::kAnd: {
      for (const Expr& c : children_) {
        if (!Truthy(c.Eval(t))) return Bool(false);
      }
      return Bool(true);
    }
    case Kind::kOr: {
      for (const Expr& c : children_) {
        if (Truthy(c.Eval(t))) return Bool(true);
      }
      return Bool(false);
    }
    case Kind::kNot:
      return Bool(!Truthy(children_[0].Eval(t)));
    case Kind::kContains: {
      Value hay = children_[0].Eval(t);
      Value needle = children_[1].Eval(t);
      if (!hay.is_string() || !needle.is_string()) return Bool(false);
      std::string lower = ToLowerAscii(hay.AsString());
      return Bool(lower.find(needle.AsString()) != std::string::npos);
    }
  }
  return Value();
}

bool Expr::Matches(const Tuple& t) const {
  if (kind_ == Kind::kTrue) return true;
  return Truthy(Eval(t));
}

size_t Expr::WireSize() const {
  size_t bytes = 1;  // kind tag
  switch (kind_) {
    case Kind::kTrue:
      break;
    case Kind::kColumn:
      bytes += VarintSize(column_);
      break;
    case Kind::kLiteral:
      bytes += literal_.WireSize();
      break;
    default:
      bytes += VarintSize(children_.size());
      for (const Expr& c : children_) bytes += c.WireSize();
      break;
  }
  return bytes;
}

void Expr::SerializeTo(BytesWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case Kind::kTrue:
      break;
    case Kind::kColumn:
      w->PutVarint(column_);
      break;
    case Kind::kLiteral:
      literal_.SerializeTo(w);
      break;
    default:
      w->PutVarint(children_.size());
      for (const Expr& c : children_) c.SerializeTo(w);
      break;
  }
}

Result<Expr> Expr::Deserialize(BytesReader* r, int depth) {
  if (depth > 64) return Status::Corruption("expr nesting too deep");
  auto kind = r->GetU8();
  if (!kind.ok()) return kind.status();
  if (kind.value() > static_cast<uint8_t>(Kind::kContains)) {
    return Status::Corruption("unknown expr kind");
  }
  Expr e;
  e.kind_ = static_cast<Kind>(kind.value());
  switch (e.kind_) {
    case Kind::kColumn: {
      auto col = r->GetVarint();
      if (!col.ok()) return col.status();
      e.column_ = static_cast<uint32_t>(col.value());
      return e;
    }
    case Kind::kLiteral: {
      auto v = Value::Deserialize(r);
      if (!v.ok()) return v.status();
      e.literal_ = std::move(v.value());
      return e;
    }
    case Kind::kTrue:
      return e;
    default: {
      auto n = r->GetVarint();
      if (!n.ok()) return n.status();
      // Arity sanity: binary operators carry exactly two children, Not one.
      size_t want_min = 1, want_max = SIZE_MAX;
      if (e.kind_ >= Kind::kEq && e.kind_ <= Kind::kGe) want_min = want_max = 2;
      if (e.kind_ == Kind::kContains) want_min = want_max = 2;
      if (e.kind_ == Kind::kNot) want_min = want_max = 1;
      if (n.value() < want_min || n.value() > want_max ||
          n.value() > r->remaining()) {
        return Status::Corruption("bad expr arity");
      }
      e.children_.reserve(n.value());
      for (uint64_t i = 0; i < n.value(); ++i) {
        auto c = Deserialize(r, depth + 1);
        if (!c.ok()) return c.status();
        e.children_.push_back(std::move(c.value()));
      }
      return e;
    }
  }
}

std::string Expr::ToString() const {
  static const char* kOps[] = {"true", "col",  "lit", "==", "!=", "<",
                               "<=",   ">",    ">=",  "and", "or", "not",
                               "contains"};
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kColumn:
      return "$" + std::to_string(column_);
    case Kind::kLiteral:
      return literal_.ToString();
    default: {
      std::string s = "(";
      s += kOps[static_cast<size_t>(kind_)];
      for (const Expr& c : children_) {
        s += ' ';
        s += c.ToString();
      }
      s += ')';
      return s;
    }
  }
}

bool operator==(const Expr& a, const Expr& b) {
  return a.kind_ == b.kind_ && a.column_ == b.column_ &&
         a.literal_ == b.literal_ && a.children_ == b.children_;
}

// ---------------------------------------------------------------------------
// PlanNode / QueryPlan serialization
// ---------------------------------------------------------------------------

namespace {

size_t NodeWireSize(const PlanNode& n) {
  size_t bytes = 1 + VarintSize(n.ns.size()) + n.ns.size() +
                 n.key.WireSize() + VarintSize(n.key_col) +
                 VarintSize(n.join_col) + n.expr.WireSize() +
                 VarintSize(n.cols.size()) + VarintSize(n.aggs.size()) +
                 VarintSize(n.sort_col) + VarintSize(n.n) + 1 +
                 VarintSize(n.children.size());
  for (uint32_t c : n.cols) bytes += VarintSize(c);
  for (const AggregateSpec& a : n.aggs) bytes += 1 + VarintSize(a.col);
  for (uint32_t c : n.children) bytes += VarintSize(c);
  return bytes;
}

void SerializeNode(const PlanNode& n, BytesWriter* w) {
  w->PutU8(static_cast<uint8_t>(n.kind));
  w->PutString(n.ns);
  n.key.SerializeTo(w);
  w->PutVarint(n.key_col);
  w->PutVarint(n.join_col);
  n.expr.SerializeTo(w);
  w->PutVarint(n.cols.size());
  for (uint32_t c : n.cols) w->PutVarint(c);
  w->PutVarint(n.aggs.size());
  for (const AggregateSpec& a : n.aggs) {
    w->PutU8(static_cast<uint8_t>(a.kind));
    w->PutVarint(a.col);
  }
  w->PutVarint(n.sort_col);
  w->PutVarint(n.n);
  w->PutU8(n.descending ? 1 : 0);
  w->PutVarint(n.children.size());
  for (uint32_t c : n.children) w->PutVarint(c);
}

Result<PlanNode> DeserializeNode(BytesReader* r) {
  PlanNode n;
  auto kind = r->GetU8();
  if (!kind.ok()) return kind.status();
  if (kind.value() > static_cast<uint8_t>(PlanNode::Kind::kLimit)) {
    return Status::Corruption("unknown plan node kind");
  }
  n.kind = static_cast<PlanNode::Kind>(kind.value());
  auto ns = r->GetString();
  if (!ns.ok()) return ns.status();
  n.ns = std::move(ns.value());
  auto key = Value::Deserialize(r);
  if (!key.ok()) return key.status();
  n.key = std::move(key.value());
  auto key_col = r->GetVarint();
  if (!key_col.ok()) return key_col.status();
  n.key_col = static_cast<uint32_t>(key_col.value());
  auto join_col = r->GetVarint();
  if (!join_col.ok()) return join_col.status();
  n.join_col = static_cast<uint32_t>(join_col.value());
  auto expr = Expr::Deserialize(r);
  if (!expr.ok()) return expr.status();
  n.expr = std::move(expr.value());
  auto ncols = r->GetVarint();
  if (!ncols.ok()) return ncols.status();
  if (ncols.value() > r->remaining()) return Status::Corruption("plan cols");
  for (uint64_t i = 0; i < ncols.value(); ++i) {
    auto c = r->GetVarint();
    if (!c.ok()) return c.status();
    n.cols.push_back(static_cast<uint32_t>(c.value()));
  }
  auto naggs = r->GetVarint();
  if (!naggs.ok()) return naggs.status();
  if (naggs.value() > r->remaining()) return Status::Corruption("plan aggs");
  for (uint64_t i = 0; i < naggs.value(); ++i) {
    auto k = r->GetU8();
    if (!k.ok()) return k.status();
    if (k.value() > AggregateSpec::kAvg) {
      return Status::Corruption("unknown aggregate kind");
    }
    auto col = r->GetVarint();
    if (!col.ok()) return col.status();
    n.aggs.push_back(AggregateSpec{
        static_cast<AggregateSpec::Kind>(k.value()),
        static_cast<size_t>(col.value())});
  }
  auto sort_col = r->GetVarint();
  if (!sort_col.ok()) return sort_col.status();
  n.sort_col = static_cast<uint32_t>(sort_col.value());
  auto cap = r->GetVarint();
  if (!cap.ok()) return cap.status();
  n.n = cap.value();
  auto desc = r->GetU8();
  if (!desc.ok()) return desc.status();
  n.descending = desc.value() != 0;
  auto nchildren = r->GetVarint();
  if (!nchildren.ok()) return nchildren.status();
  if (nchildren.value() > r->remaining()) {
    return Status::Corruption("plan children");
  }
  for (uint64_t i = 0; i < nchildren.value(); ++i) {
    auto c = r->GetVarint();
    if (!c.ok()) return c.status();
    n.children.push_back(static_cast<uint32_t>(c.value()));
  }
  return n;
}

bool AggEq(const AggregateSpec& a, const AggregateSpec& b) {
  return a.kind == b.kind && a.col == b.col;
}

}  // namespace

bool operator==(const PlanNode& a, const PlanNode& b) {
  if (a.kind != b.kind || a.ns != b.ns || !(a.key == b.key) ||
      a.key_col != b.key_col || a.join_col != b.join_col ||
      a.expr != b.expr || a.cols != b.cols || a.sort_col != b.sort_col ||
      a.n != b.n || a.descending != b.descending ||
      a.children != b.children || a.aggs.size() != b.aggs.size()) {
    return false;
  }
  for (size_t i = 0; i < a.aggs.size(); ++i) {
    if (!AggEq(a.aggs[i], b.aggs[i])) return false;
  }
  return true;
}

size_t QueryPlan::WireSize() const {
  size_t bytes = VarintSize(nodes.size()) + VarintSize(root);
  for (const PlanNode& n : nodes) bytes += NodeWireSize(n);
  return bytes;
}

void QueryPlan::SerializeTo(BytesWriter* w) const {
  w->PutVarint(nodes.size());
  for (const PlanNode& n : nodes) SerializeNode(n, w);
  w->PutVarint(root);
}

std::vector<uint8_t> QueryPlan::Serialize() const {
  BytesWriter w;
  w.Reserve(WireSize());
  SerializeTo(&w);
  return w.Take();
}

Result<QueryPlan> QueryPlan::Deserialize(BytesReader* r) {
  QueryPlan plan;
  auto count = r->GetVarint();
  if (!count.ok()) return count.status();
  if (count.value() > r->remaining()) return Status::Corruption("plan size");
  plan.nodes.reserve(count.value());
  for (uint64_t i = 0; i < count.value(); ++i) {
    auto n = DeserializeNode(r);
    if (!n.ok()) return n.status();
    plan.nodes.push_back(std::move(n.value()));
  }
  auto root = r->GetVarint();
  if (!root.ok()) return root.status();
  plan.root = static_cast<uint32_t>(root.value());
  if (!plan.nodes.empty() && plan.root >= plan.nodes.size()) {
    return Status::Corruption("plan root out of range");
  }
  // A hostile image must not encode a cycle that would hang the compiler
  // or printer.
  if (!plan.ChildrenPrecedeParents()) {
    return Status::Corruption("plan child out of order");
  }
  return plan;
}

bool QueryPlan::ChildrenPrecedeParents() const {
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    for (uint32_t c : nodes[i].children) {
      if (c >= i) return false;
    }
  }
  return true;
}

Result<QueryPlan> QueryPlan::Deserialize(const std::vector<uint8_t>& image) {
  BytesReader r(image);
  auto plan = Deserialize(&r);
  if (plan.ok() && !r.exhausted()) {
    return Status::Corruption("trailing bytes after plan");
  }
  return plan;
}

std::string QueryPlan::ToString() const {
  static const char* kNames[] = {"IndexScan", "Filter",  "Project",
                                 "RehashJoin", "FetchJoin", "GroupAggregate",
                                 "TopK",      "Limit"};
  std::string out;
  std::function<void(uint32_t, int)> walk = [&](uint32_t idx, int indent) {
    const PlanNode& n = nodes[idx];
    out.append(static_cast<size_t>(indent) * 2, ' ');
    out += kNames[static_cast<size_t>(n.kind)];
    if (!n.ns.empty()) out += " " + n.ns;
    if (n.kind == PlanNode::Kind::kIndexScan) {
      out += "[" + n.key.ToString() + "]";
    }
    if (n.kind == PlanNode::Kind::kFilter) out += " " + n.expr.ToString();
    if (n.kind == PlanNode::Kind::kTopK) {
      out += " col=" + std::to_string(n.sort_col) +
             " k=" + std::to_string(n.n);
    }
    if (n.kind == PlanNode::Kind::kLimit) out += " " + std::to_string(n.n);
    if (n.kind == PlanNode::Kind::kProject) {
      out += " [";
      for (size_t i = 0; i < n.cols.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(n.cols[i]);
      }
      out += ']';
    }
    out += '\n';
    for (uint32_t c : n.children) walk(c, indent + 1);
  };
  if (!nodes.empty()) walk(root, 0);
  return out;
}

// ---------------------------------------------------------------------------
// PlanBuilder
// ---------------------------------------------------------------------------

uint32_t PlanBuilder::Add(PlanNode node) {
  plan_.nodes.push_back(std::move(node));
  uint32_t idx = static_cast<uint32_t>(plan_.nodes.size() - 1);
  plan_.root = idx;
  has_root_ = true;
  return idx;
}

PlanBuilder& PlanBuilder::IndexScan(std::string ns, Value key, size_t key_col,
                                    size_t join_col) {
  PlanNode n;
  n.kind = PlanNode::Kind::kIndexScan;
  n.ns = std::move(ns);
  n.key = std::move(key);
  n.key_col = static_cast<uint32_t>(key_col);
  n.join_col = static_cast<uint32_t>(join_col);
  Add(std::move(n));
  return *this;
}

PlanBuilder& PlanBuilder::Filter(Expr predicate) {
  assert(has_root_ && "Filter needs an input operator");
  PlanNode n;
  n.kind = PlanNode::Kind::kFilter;
  n.expr = std::move(predicate);
  n.children.push_back(plan_.root);
  Add(std::move(n));
  return *this;
}

PlanBuilder& PlanBuilder::Project(std::vector<uint32_t> cols) {
  assert(has_root_ && "Project needs an input operator");
  PlanNode n;
  n.kind = PlanNode::Kind::kProject;
  n.cols = std::move(cols);
  n.children.push_back(plan_.root);
  Add(std::move(n));
  return *this;
}

PlanBuilder& PlanBuilder::RehashJoin(std::string ns, Value key,
                                     size_t key_col, size_t join_col) {
  assert(has_root_ && "RehashJoin needs a left input");
  uint32_t left = plan_.root;
  PlanNode scan;
  scan.kind = PlanNode::Kind::kIndexScan;
  scan.ns = std::move(ns);
  scan.key = std::move(key);
  scan.key_col = static_cast<uint32_t>(key_col);
  scan.join_col = static_cast<uint32_t>(join_col);
  plan_.nodes.push_back(std::move(scan));
  uint32_t right = static_cast<uint32_t>(plan_.nodes.size() - 1);
  PlanNode join;
  join.kind = PlanNode::Kind::kRehashJoin;
  join.children = {left, right};
  Add(std::move(join));
  return *this;
}

PlanBuilder& PlanBuilder::FetchJoin(std::string ns, size_t key_col) {
  assert(has_root_ && "FetchJoin needs an input operator");
  PlanNode n;
  n.kind = PlanNode::Kind::kFetchJoin;
  n.ns = std::move(ns);
  n.key_col = static_cast<uint32_t>(key_col);
  n.children.push_back(plan_.root);
  Add(std::move(n));
  return *this;
}

PlanBuilder& PlanBuilder::GroupAggregate(std::vector<uint32_t> group_cols,
                                         std::vector<AggregateSpec> aggs) {
  assert(has_root_ && "GroupAggregate needs an input operator");
  PlanNode n;
  n.kind = PlanNode::Kind::kGroupAggregate;
  n.cols = std::move(group_cols);
  n.aggs = std::move(aggs);
  n.children.push_back(plan_.root);
  Add(std::move(n));
  return *this;
}

PlanBuilder& PlanBuilder::TopK(size_t col, size_t k, bool descending) {
  assert(has_root_ && "TopK needs an input operator");
  PlanNode n;
  n.kind = PlanNode::Kind::kTopK;
  n.sort_col = static_cast<uint32_t>(col);
  n.n = k;
  n.descending = descending;
  n.children.push_back(plan_.root);
  Add(std::move(n));
  return *this;
}

PlanBuilder& PlanBuilder::Limit(size_t n) {
  assert(has_root_ && "Limit needs an input operator");
  PlanNode node;
  node.kind = PlanNode::Kind::kLimit;
  node.n = n;
  node.children.push_back(plan_.root);
  Add(std::move(node));
  return *this;
}

// ---------------------------------------------------------------------------
// Cost stub and size-driven rewrite
// ---------------------------------------------------------------------------

namespace {

/// Chain IndexScan node indices in stage order (leftmost-deepest first),
/// plus whether every chain scan is undecorated (no Filter/Project between
/// the joins and their scans). Returns false for shapes with no scan.
bool CollectChainScans(const QueryPlan& plan, std::vector<uint32_t>* scans,
                       bool* undecorated) {
  if (plan.empty()) return false;
  *undecorated = true;
  // Descend through the unary finishers to the topmost join (or scan).
  uint32_t idx = plan.root;
  while (true) {
    const PlanNode& n = plan.nodes[idx];
    if (n.kind == PlanNode::Kind::kRehashJoin ||
        n.kind == PlanNode::Kind::kIndexScan) {
      break;
    }
    if (n.children.size() != 1) return false;
    idx = n.children[0];
  }
  // Walk the left-deep join spine, collecting right scans in reverse.
  std::vector<uint32_t> rights;
  while (plan.nodes[idx].kind == PlanNode::Kind::kRehashJoin) {
    const PlanNode& join = plan.nodes[idx];
    if (join.children.size() != 2) return false;
    uint32_t right = join.children[1];
    while (plan.nodes[right].kind == PlanNode::Kind::kFilter) {
      *undecorated = false;
      if (plan.nodes[right].children.size() != 1) return false;
      right = plan.nodes[right].children[0];
    }
    if (plan.nodes[right].kind != PlanNode::Kind::kIndexScan) return false;
    rights.push_back(right);
    idx = join.children[0];
  }
  // Stage 0: the leftmost leaf, possibly dressed with Filter/Project.
  while (plan.nodes[idx].kind == PlanNode::Kind::kFilter ||
         plan.nodes[idx].kind == PlanNode::Kind::kProject) {
    *undecorated = false;
    if (plan.nodes[idx].children.size() != 1) return false;
    idx = plan.nodes[idx].children[0];
  }
  if (plan.nodes[idx].kind != PlanNode::Kind::kIndexScan) return false;
  scans->push_back(idx);
  for (auto it = rights.rbegin(); it != rights.rend(); ++it) {
    scans->push_back(*it);
  }
  return true;
}

/// For a single-scan plan whose stage-0 filter is a conjunction of
/// Contains(Column(c), literal) terms (the InvertedCache shape), returns
/// the Filter node index, or UINT32_MAX.
uint32_t FindContainsFilter(const QueryPlan& plan, uint32_t scan_idx) {
  for (uint32_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& n = plan.nodes[i];
    if (n.kind != PlanNode::Kind::kFilter) continue;
    if (n.children.size() == 1 && n.children[0] == scan_idx) return i;
  }
  return UINT32_MAX;
}

/// Decomposes `e` into Contains(Column(col), string literal) conjuncts.
/// Returns false when any conjunct has a different shape.
bool DecomposeContains(const Expr& e, uint32_t* col,
                       std::vector<std::string>* needles) {
  if (e.kind() == Expr::Kind::kAnd) {
    for (const Expr& c : e.children()) {
      if (!DecomposeContains(c, col, needles)) return false;
    }
    return true;
  }
  if (e.kind() != Expr::Kind::kContains) return false;
  const Expr& hay = e.children()[0];
  const Expr& needle = e.children()[1];
  if (hay.kind() != Expr::Kind::kColumn ||
      needle.kind() != Expr::Kind::kLiteral ||
      !needle.literal().is_string()) {
    return false;
  }
  if (*col != UINT32_MAX && *col != hay.column()) return false;
  *col = static_cast<uint32_t>(hay.column());
  needles->push_back(std::string(needle.literal().AsString()));
  return true;
}

}  // namespace

std::vector<std::pair<std::string, Value>> CollectProbeTargets(
    const QueryPlan& plan) {
  std::vector<std::pair<std::string, Value>> targets;
  std::vector<uint32_t> scans;
  bool undecorated = false;
  if (!CollectChainScans(plan, &scans, &undecorated)) return targets;
  for (uint32_t idx : scans) {
    targets.emplace_back(plan.nodes[idx].ns, plan.nodes[idx].key);
  }
  if (scans.size() == 1) {
    // Single-site shape: every Contains literal is a candidate routing key.
    uint32_t filter = FindContainsFilter(plan, scans[0]);
    if (filter != UINT32_MAX) {
      uint32_t col = UINT32_MAX;
      std::vector<std::string> needles;
      if (DecomposeContains(plan.nodes[filter].expr, &col, &needles)) {
        for (std::string& s : needles) {
          targets.emplace_back(plan.nodes[scans[0]].ns, Value(std::move(s)));
        }
      }
    }
  }
  return targets;
}

bool ReorderByPostingSize(QueryPlan* plan, const PostingSizeFn& posting_size) {
  std::vector<uint32_t> scans;
  bool undecorated = false;
  if (!CollectChainScans(*plan, &scans, &undecorated)) return false;

  if (scans.size() > 1) {
    // Multi-stage chain: permute the scan *keys* smallest-first. Only safe
    // when no stage carries position-dependent dressing (filters, payload
    // projections) and every scan reads the same table with the same
    // column layout — the compiled search chain qualifies; a key moved
    // onto a different namespace would scan a table it was never
    // published to.
    if (!undecorated) return false;
    for (uint32_t idx : scans) {
      const PlanNode& scan = plan->nodes[idx];
      const PlanNode& first = plan->nodes[scans[0]];
      if (scan.ns != first.ns || scan.key_col != first.key_col ||
          scan.join_col != first.join_col) {
        return false;
      }
    }
    std::vector<std::pair<size_t, Value>> sized;
    sized.reserve(scans.size());
    for (uint32_t idx : scans) {
      const PlanNode& scan = plan->nodes[idx];
      sized.emplace_back(posting_size(scan.ns, scan.key), scan.key);
    }
    std::stable_sort(sized.begin(), sized.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    bool changed = false;
    for (size_t i = 0; i < scans.size(); ++i) {
      PlanNode& scan = plan->nodes[scans[i]];
      if (!(scan.key == sized[i].second)) {
        scan.key = sized[i].second;
        changed = true;
      }
    }
    return changed;
  }

  // Single-site shape (InvertedCache): re-root the scan at the cheapest
  // term among {scan key} ∪ {Contains literals}; the displaced key becomes
  // a Contains term itself.
  uint32_t scan_idx = scans[0];
  PlanNode& scan = plan->nodes[scan_idx];
  if (!scan.key.is_string()) return false;
  uint32_t filter_idx = FindContainsFilter(*plan, scan_idx);
  if (filter_idx == UINT32_MAX) return false;
  uint32_t col = UINT32_MAX;
  std::vector<std::string> needles;
  if (!DecomposeContains(plan->nodes[filter_idx].expr, &col, &needles) ||
      needles.empty()) {
    return false;
  }
  std::string key_term(scan.key.AsString());
  size_t best_size = posting_size(scan.ns, scan.key);
  size_t best = SIZE_MAX;  // index into needles; SIZE_MAX = keep the key
  for (size_t i = 0; i < needles.size(); ++i) {
    size_t sz = posting_size(scan.ns, Value(needles[i]));
    if (sz < best_size) {
      best_size = sz;
      best = i;
    }
  }
  if (best == SIZE_MAX) return false;
  scan.key = Value(needles[best]);
  needles[best] = key_term;
  std::vector<Expr> conjuncts;
  conjuncts.reserve(needles.size());
  for (std::string& s : needles) {
    conjuncts.push_back(Expr::Contains(Expr::Column(col), std::move(s)));
  }
  plan->nodes[filter_idx].expr = Expr::And(std::move(conjuncts));
  return true;
}

}  // namespace pierstack::pier
