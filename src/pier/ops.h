// Local relational operators over row vectors.
//
// SymmetricHashJoin is the incremental join PIER runs inside the
// distributed keyword chain (paper Section 3.2: "the receiving node will
// perform a symmetric hash join (SHJ) between the incoming tuples and its
// local matching tuples"). GroupAggregate and TopK are the blocking
// finishers a plan's GroupAggregate / TopK nodes run at the query node
// (plan_exec.h applies them); HashJoin is the blocking join the SHJ is
// checked against.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pier/schema.h"

namespace pierstack::pier {

/// Flat open-addressing multimap from 64-bit join hash to Tuple — the
/// bucket store of both joins. Entries live in one dense vector (no
/// per-node allocation like std::unordered_multimap) indexed by a linear
/// probing slot table; join tables only ever insert, which keeps probing
/// correct without tombstones.
class JoinTable {
 public:
  /// Sizes for `n` entries up front (load factor stays <= 1/2).
  void Reserve(size_t n) {
    entries_.reserve(n);
    size_t want = NextPow2(n * 2);
    if (want > slots_.size()) GrowSlots(want);
  }

  void Insert(uint64_t h, Tuple t) {
    if ((entries_.size() + 1) * 2 > slots_.size()) {
      GrowSlots(slots_.empty() ? 16 : slots_.size() * 2);
    }
    entries_.emplace_back(h, std::move(t));
    Place(static_cast<uint32_t>(entries_.size()));
  }

  /// Number of entries whose hash equals `h` (an upper bound on value
  /// matches — callers reserve with it, then compare values).
  size_t CountHash(uint64_t h) const {
    size_t n = 0;
    ForEachMatch(h, [&](const Tuple&) { ++n; });
    return n;
  }

  /// Invokes `fn` with every stored tuple whose hash equals `h`.
  template <typename Fn>
  void ForEachMatch(uint64_t h, Fn&& fn) const {
    if (slots_.empty()) return;
    size_t mask = slots_.size() - 1;
    for (size_t s = h & mask; slots_[s] != 0; s = (s + 1) & mask) {
      const auto& e = entries_[slots_[s] - 1];
      if (e.first == h) fn(e.second);
    }
  }

  size_t size() const { return entries_.size(); }
  void Clear() {
    entries_.clear();
    slots_.clear();
  }

 private:
  void Place(uint32_t idx1) {
    size_t mask = slots_.size() - 1;
    size_t s = entries_[idx1 - 1].first & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = idx1;
  }
  void GrowSlots(size_t n) {
    slots_.assign(n, 0);
    for (uint32_t i = 1; i <= entries_.size(); ++i) Place(i);
  }
  static size_t NextPow2(size_t n) {
    size_t p = 16;
    while (p < n) p <<= 1;
    return p;
  }

  std::vector<std::pair<uint64_t, Tuple>> entries_;  // insertion order
  std::vector<uint32_t> slots_;  ///< 1-based entry index; 0 = empty.
};

/// Incremental symmetric hash join: tuples may be inserted on either side
/// in any order; each insertion returns the join outputs it completes.
/// Output tuples are left ++ right concatenations regardless of insertion
/// order.
class SymmetricHashJoin {
 public:
  SymmetricHashJoin(size_t left_col, size_t right_col);

  /// Sizes the two hash tables up front when the input cardinalities are
  /// known — batch decoding hands them to the join for free, avoiding the
  /// incremental rehashes of growing tables tuple by tuple.
  void Reserve(size_t left, size_t right) {
    left_table_.Reserve(left);
    right_table_.Reserve(right);
  }

  /// Inserts into the left relation; returns newly joined outputs.
  std::vector<Tuple> InsertLeft(Tuple t);
  /// Inserts into the right relation; returns newly joined outputs.
  std::vector<Tuple> InsertRight(Tuple t);

  size_t left_size() const { return left_count_; }
  size_t right_size() const { return right_count_; }

 private:
  size_t left_col_, right_col_;
  JoinTable left_table_;
  JoinTable right_table_;
  size_t left_count_ = 0, right_count_ = 0;
};

/// One aggregate column of a GroupAggregate.
struct AggregateSpec {
  enum Kind { kCount, kSum, kMin, kMax, kAvg };
  Kind kind;
  size_t col = 0;  ///< Input column (ignored for kCount).
};

/// Blocking equi-join on left.left_col == right.right_col: builds `right`,
/// then emits, for each `left` row in order, its left ++ right
/// concatenations, the last-built match first. The reference the
/// SymmetricHashJoin tests compare against.
std::vector<Tuple> HashJoin(const std::vector<Tuple>& left,
                            const std::vector<Tuple>& right, size_t left_col,
                            size_t right_col);

/// Hash group-by with the classic aggregates. Output rows are the
/// group-key columns followed by one column per aggregate, one row per
/// group in first-seen order. kCount emits a uint64; kSum, kMin, kMax and
/// kAvg emit doubles (string columns aggregate as 0). A column past a row's
/// arity reads as Value(), as Expr::Eval reads it.
std::vector<Tuple> GroupAggregate(const std::vector<Tuple>& rows,
                                  const std::vector<uint32_t>& group_cols,
                                  const std::vector<AggregateSpec>& aggs);

/// The `k` best rows by column `col` (largest first when `descending`),
/// best first. Ties keep the order a bounded heap and std::sort_heap leave
/// them in; a column past a row's arity reads as Value().
std::vector<Tuple> TopK(std::vector<Tuple> rows, size_t col, size_t k,
                        bool descending = true);

}  // namespace pierstack::pier
