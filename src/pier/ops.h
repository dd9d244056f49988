// Local relational operators.
//
// The pull-based Operator interface (Open/Next/Close iterators) serves
// node-local query plans and tests; SymmetricHashJoin is the incremental
// join PIER runs inside the distributed keyword chain (paper Section 3.2:
// "the receiving node will perform a symmetric hash join (SHJ) between the
// incoming tuples and its local matching tuples").
#pragma once

#include <functional>
#include <memory>
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

/// Pull-based iterator over tuples (Volcano style).
class Operator {
 public:
  virtual ~Operator() = default;
  virtual void Open() = 0;
  /// Produces the next tuple; returns false when exhausted.
  virtual bool Next(Tuple* out) = 0;
  virtual void Close() {}
};

/// Scans an in-memory tuple vector (e.g. a LocalStore namespace snapshot).
/// Next() hands out the stored tuple handle — a refcount bump on the
/// shared row payload, not a deep copy — so the scan stays re-Openable
/// (GroupByAggregate and tests replay inputs).
class VectorScan : public Operator {
 public:
  explicit VectorScan(std::vector<Tuple> tuples)
      : tuples_(std::move(tuples)) {}
  void Open() override { pos_ = 0; }
  bool Next(Tuple* out) override;

 private:
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

/// Filters by predicate.
class Selection : public Operator {
 public:
  using Predicate = std::function<bool(const Tuple&)>;
  Selection(std::unique_ptr<Operator> child, Predicate pred)
      : child_(std::move(child)), pred_(std::move(pred)) {}
  void Open() override { child_->Open(); }
  bool Next(Tuple* out) override;
  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  Predicate pred_;
};

/// Projects a subset of columns, in the given order.
class Projection : public Operator {
 public:
  Projection(std::unique_ptr<Operator> child, std::vector<size_t> cols)
      : child_(std::move(child)), cols_(std::move(cols)) {}
  void Open() override { child_->Open(); }
  bool Next(Tuple* out) override;
  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<size_t> cols_;
};

/// Stops after `limit` tuples.
class Limit : public Operator {
 public:
  Limit(std::unique_ptr<Operator> child, size_t limit)
      : child_(std::move(child)), limit_(limit) {}
  void Open() override {
    child_->Open();
    produced_ = 0;
  }
  bool Next(Tuple* out) override;
  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  size_t limit_;
  size_t produced_ = 0;
};

/// Classic build/probe equi-join (builds the right input on Open).
/// Output tuples are left ++ right concatenations.
class HashJoin : public Operator {
 public:
  HashJoin(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
           size_t left_col, size_t right_col);
  void Open() override;
  bool Next(Tuple* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  size_t left_col_, right_col_;
  JoinTable build_;
  Tuple current_left_;
  std::vector<Tuple> pending_;  // matches of current_left_ not yet emitted
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

/// One aggregate column of a GroupByAggregate.
struct AggregateSpec {
  enum Kind { kCount, kSum, kMin, kMax, kAvg };
  Kind kind;
  size_t col = 0;  ///< Input column (ignored for kCount).
};

/// Blocking hash group-by with the classic aggregates. Output rows are the
/// group-key columns followed by one column per aggregate (kAvg emits a
/// double; the others preserve/emit uint64-compatible Values).
class GroupByAggregate : public Operator {
 public:
  GroupByAggregate(std::unique_ptr<Operator> child,
                   std::vector<size_t> group_cols,
                   std::vector<AggregateSpec> aggregates);
  void Open() override;
  bool Next(Tuple* out) override;
  void Close() override;

 private:
  struct GroupState {
    std::vector<Value> key;
    std::vector<double> acc;   // sum / min / max / count per aggregate
    std::vector<uint64_t> n;   // rows seen per aggregate (for avg)
  };

  std::unique_ptr<Operator> child_;
  std::vector<size_t> group_cols_;
  std::vector<AggregateSpec> aggs_;
  std::vector<GroupState> groups_;
  size_t emit_pos_ = 0;
};

/// Top-K by a column (ascending or descending); blocking. Useful for
/// "best results first" style plans over Item tuples.
class TopK : public Operator {
 public:
  TopK(std::unique_ptr<Operator> child, size_t col, size_t k,
       bool descending = true);
  void Open() override;
  bool Next(Tuple* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  size_t col_;
  size_t k_;
  bool descending_;
  std::vector<Tuple> heap_;
  size_t emit_pos_ = 0;
};

/// Drains an operator tree into a vector (testing/examples convenience).
std::vector<Tuple> Collect(Operator* op);

}  // namespace pierstack::pier
