#include "pier/ops.h"

#include <algorithm>
#include <unordered_map>

namespace pierstack::pier {

namespace {

/// Column `c` of `t`, or Value() past the row, as Expr::Eval reads it: plan
/// rows come from the store, so no width check happens at compile time.
const Value& ColumnOrDefault(const Tuple& t, size_t c) {
  static const Value kMissing;
  return c < t.arity() ? t.at(c) : kMissing;
}

double NumericOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kUint64:
      return static_cast<double>(v.AsUint64());
    case ValueType::kInt64:
      return static_cast<double>(v.AsInt64());
    case ValueType::kDouble:
      return v.AsDouble();
    case ValueType::kString:
      return 0.0;  // non-numeric columns aggregate as zero
  }
  return 0.0;
}

}  // namespace

bool VectorScan::Next(Tuple* out) {
  if (pos_ >= tuples_.size()) return false;
  *out = tuples_[pos_++];  // handle copy: refcount bump, no row deep-copy
  return true;
}

bool Selection::Next(Tuple* out) {
  Tuple t;
  while (child_->Next(&t)) {
    if (pred_(t)) {
      *out = std::move(t);
      return true;
    }
  }
  return false;
}

bool Projection::Next(Tuple* out) {
  Tuple t;
  if (!child_->Next(&t)) return false;
  std::vector<Value> vals;
  vals.reserve(cols_.size());
  for (size_t c : cols_) vals.push_back(ColumnOrDefault(t, c));
  *out = Tuple(std::move(vals));
  return true;
}

bool Limit::Next(Tuple* out) {
  if (produced_ >= limit_) return false;
  if (!child_->Next(out)) return false;
  ++produced_;
  return true;
}

HashJoin::HashJoin(std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right, size_t left_col,
                   size_t right_col)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_col_(left_col),
      right_col_(right_col) {}

void HashJoin::Open() {
  left_->Open();
  right_->Open();
  build_.Clear();
  pending_.clear();
  // Drain the build side first so the table can be sized exactly — one
  // rehash instead of log(n) incremental ones.
  std::vector<Tuple> rows;
  Tuple t;
  while (right_->Next(&t)) {
    rows.push_back(std::move(t));
    t = Tuple();
  }
  build_.Reserve(rows.size());
  for (Tuple& row : rows) {
    uint64_t h = row.at(right_col_).Hash();
    build_.Insert(h, std::move(row));
  }
  pending_.reserve(8);
}

bool HashJoin::Next(Tuple* out) {
  while (true) {
    if (!pending_.empty()) {
      *out = std::move(pending_.back());
      pending_.pop_back();
      return true;
    }
    if (!left_->Next(&current_left_)) return false;
    const Value& key = current_left_.at(left_col_);
    build_.ForEachMatch(key.Hash(), [&](const Tuple& match) {
      if (!(match.at(right_col_) == key)) return;  // hash collision
      pending_.push_back(Tuple::Concat(current_left_, match));
    });
  }
}

void HashJoin::Close() {
  left_->Close();
  right_->Close();
  build_.Clear();
}

SymmetricHashJoin::SymmetricHashJoin(size_t left_col, size_t right_col)
    : left_col_(left_col), right_col_(right_col) {}

std::vector<Tuple> SymmetricHashJoin::InsertLeft(Tuple t) {
  std::vector<Tuple> out;
  const Value& key = t.at(left_col_);
  uint64_t h = key.Hash();
  size_t candidates = right_table_.CountHash(h);
  if (candidates > 0) {
    out.reserve(candidates);
    right_table_.ForEachMatch(h, [&](const Tuple& match) {
      if (match.at(right_col_) == key) out.push_back(Tuple::Concat(t, match));
    });
  }
  left_table_.Insert(h, std::move(t));
  ++left_count_;
  return out;
}

std::vector<Tuple> SymmetricHashJoin::InsertRight(Tuple t) {
  std::vector<Tuple> out;
  const Value& key = t.at(right_col_);
  uint64_t h = key.Hash();
  size_t candidates = left_table_.CountHash(h);
  if (candidates > 0) {
    out.reserve(candidates);
    left_table_.ForEachMatch(h, [&](const Tuple& match) {
      if (match.at(left_col_) == key) out.push_back(Tuple::Concat(match, t));
    });
  }
  right_table_.Insert(h, std::move(t));
  ++right_count_;
  return out;
}

GroupByAggregate::GroupByAggregate(std::unique_ptr<Operator> child,
                                   std::vector<size_t> group_cols,
                                   std::vector<AggregateSpec> aggregates)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggregates)) {}

void GroupByAggregate::Open() {
  child_->Open();
  groups_.clear();
  emit_pos_ = 0;
  // Hash of key values -> index into groups_ (collisions resolved by full
  // key comparison).
  std::unordered_multimap<uint64_t, size_t> lookup;
  Tuple t;
  while (child_->Next(&t)) {
    std::vector<Value> key;
    key.reserve(group_cols_.size());
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t c : group_cols_) {
      const Value& v = ColumnOrDefault(t, c);
      key.push_back(v);
      h = HashCombine(h, v.Hash());
    }
    size_t idx = SIZE_MAX;
    auto [lo, hi] = lookup.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (groups_[it->second].key == key) {
        idx = it->second;
        break;
      }
    }
    if (idx == SIZE_MAX) {
      idx = groups_.size();
      GroupState g;
      g.key = std::move(key);
      g.acc.resize(aggs_.size(), 0.0);
      g.n.resize(aggs_.size(), 0);
      groups_.push_back(std::move(g));
      lookup.emplace(h, idx);
    }
    GroupState& g = groups_[idx];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggregateSpec& spec = aggs_[a];
      double v = spec.kind == AggregateSpec::kCount
                     ? 0.0
                     : NumericOf(ColumnOrDefault(t, spec.col));
      switch (spec.kind) {
        case AggregateSpec::kCount:
          g.acc[a] += 1;
          break;
        case AggregateSpec::kSum:
        case AggregateSpec::kAvg:
          g.acc[a] += v;
          break;
        case AggregateSpec::kMin:
          g.acc[a] = g.n[a] == 0 ? v : std::min(g.acc[a], v);
          break;
        case AggregateSpec::kMax:
          g.acc[a] = g.n[a] == 0 ? v : std::max(g.acc[a], v);
          break;
      }
      g.n[a] += 1;
    }
  }
}

bool GroupByAggregate::Next(Tuple* out) {
  if (emit_pos_ >= groups_.size()) return false;
  const GroupState& g = groups_[emit_pos_++];
  std::vector<Value> vals = g.key;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    switch (aggs_[a].kind) {
      case AggregateSpec::kCount:
        vals.push_back(Value(static_cast<uint64_t>(g.acc[a])));
        break;
      case AggregateSpec::kAvg:
        vals.push_back(
            Value(g.n[a] == 0 ? 0.0 : g.acc[a] / static_cast<double>(g.n[a])));
        break;
      default:
        vals.push_back(Value(g.acc[a]));
        break;
    }
  }
  *out = Tuple(std::move(vals));
  return true;
}

void GroupByAggregate::Close() {
  child_->Close();
  groups_.clear();
}

TopK::TopK(std::unique_ptr<Operator> child, size_t col, size_t k,
           bool descending)
    : child_(std::move(child)), col_(col), k_(k), descending_(descending) {}

void TopK::Open() {
  child_->Open();
  heap_.clear();
  emit_pos_ = 0;
  if (k_ == 0) return;
  // "Better" = should be kept; the heap root is the worst retained tuple.
  auto better = [this](const Tuple& a, const Tuple& b) {
    const Value& x = ColumnOrDefault(a, col_);
    const Value& y = ColumnOrDefault(b, col_);
    return descending_ ? y < x : x < y;
  };
  auto worst_first = [&](const Tuple& a, const Tuple& b) {
    return better(a, b);  // max-heap on "badness": root = worst retained
  };
  Tuple t;
  while (child_->Next(&t)) {
    if (heap_.size() < k_) {
      heap_.push_back(std::move(t));
      std::push_heap(heap_.begin(), heap_.end(), worst_first);
    } else if (better(t, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), worst_first);
      heap_.back() = std::move(t);
      std::push_heap(heap_.begin(), heap_.end(), worst_first);
    }
    t = Tuple();
  }
  // sort_heap orders ascending under the comparator; with "better" playing
  // the role of less-than, that is best-first — the emission order.
  std::sort_heap(heap_.begin(), heap_.end(), worst_first);
}

bool TopK::Next(Tuple* out) {
  if (emit_pos_ >= heap_.size()) return false;
  *out = heap_[emit_pos_++];
  return true;
}

void TopK::Close() {
  child_->Close();
  heap_.clear();
}

std::vector<Tuple> Collect(Operator* op) {
  std::vector<Tuple> out;
  op->Open();
  Tuple t;
  while (op->Next(&t)) out.push_back(std::move(t));
  op->Close();
  return out;
}

}  // namespace pierstack::pier
