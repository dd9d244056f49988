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

std::vector<Tuple> HashJoin(const std::vector<Tuple>& left,
                            const std::vector<Tuple>& right, size_t left_col,
                            size_t right_col) {
  JoinTable build;
  build.Reserve(right.size());
  for (const Tuple& row : right) build.Insert(row.at(right_col).Hash(), row);
  std::vector<Tuple> out;
  for (const Tuple& row : left) {
    const Value& key = row.at(left_col);
    size_t first = out.size();
    build.ForEachMatch(key.Hash(), [&](const Tuple& match) {
      if (match.at(right_col) == key) {  // else a hash collision
        out.push_back(Tuple::Concat(row, match));
      }
    });
    std::reverse(out.begin() + static_cast<ptrdiff_t>(first), out.end());
  }
  return out;
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

std::vector<Tuple> GroupAggregate(const std::vector<Tuple>& rows,
                                  const std::vector<uint32_t>& group_cols,
                                  const std::vector<AggregateSpec>& aggs) {
  struct GroupState {
    std::vector<Value> key;
    std::vector<double> acc;  // sum / min / max / count per aggregate
    std::vector<uint64_t> n;  // rows seen per aggregate (for avg)
  };
  std::vector<GroupState> groups;  // first-seen order
  // Hash of key values -> index into groups (collisions resolved by full
  // key comparison).
  std::unordered_multimap<uint64_t, size_t> lookup;
  for (const Tuple& t : rows) {
    std::vector<Value> key;
    key.reserve(group_cols.size());
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint32_t c : group_cols) {
      const Value& v = ColumnOrDefault(t, c);
      key.push_back(v);
      h = HashCombine(h, v.Hash());
    }
    size_t idx = SIZE_MAX;
    auto [lo, hi] = lookup.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (groups[it->second].key == key) {
        idx = it->second;
        break;
      }
    }
    if (idx == SIZE_MAX) {
      idx = groups.size();
      GroupState g;
      g.key = std::move(key);
      g.acc.resize(aggs.size(), 0.0);
      g.n.resize(aggs.size(), 0);
      groups.push_back(std::move(g));
      lookup.emplace(h, idx);
    }
    GroupState& g = groups[idx];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggregateSpec& spec = aggs[a];
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
  std::vector<Tuple> out;
  out.reserve(groups.size());
  for (GroupState& g : groups) {
    std::vector<Value> vals = std::move(g.key);
    for (size_t a = 0; a < aggs.size(); ++a) {
      switch (aggs[a].kind) {
        case AggregateSpec::kCount:
          vals.push_back(Value(static_cast<uint64_t>(g.acc[a])));
          break;
        case AggregateSpec::kAvg:
          vals.push_back(Value(
              g.n[a] == 0 ? 0.0 : g.acc[a] / static_cast<double>(g.n[a])));
          break;
        default:
          vals.push_back(Value(g.acc[a]));
          break;
      }
    }
    out.push_back(Tuple(std::move(vals)));
  }
  return out;
}

std::vector<Tuple> TopK(std::vector<Tuple> rows, size_t col, size_t k,
                        bool descending) {
  std::vector<Tuple> heap;
  if (k == 0) return heap;
  // "Better" = should be kept; the heap root is the worst retained row.
  auto better = [col, descending](const Tuple& a, const Tuple& b) {
    const Value& x = ColumnOrDefault(a, col);
    const Value& y = ColumnOrDefault(b, col);
    return descending ? y < x : x < y;
  };
  for (Tuple& t : rows) {
    if (heap.size() < k) {
      heap.push_back(std::move(t));
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(t, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = std::move(t);
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  // sort_heap orders ascending under the comparator; with "better" playing
  // the role of less-than, that is best-first.
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

}  // namespace pierstack::pier
