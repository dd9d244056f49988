// Value: the dynamic typed cell of PIER tuples.
//
// Strings are shared immutable slices: a string value references a span of
// a shared payload (either its own allocation, or a batch-wide string
// arena), so copying a Value — the innermost operation of every join,
// projection and rehash — is a refcount bump instead of a heap-allocating
// string copy, and batch deserialization materializes N string values with
// ZERO per-string allocations (StringArena packs all decoded bytes into
// one shared blob).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>

#include "common/bytes.h"
#include "common/hashing.h"

namespace pierstack::pier {

class StringArena;

/// Field types supported by the engine.
enum class ValueType : uint8_t {
  kUint64 = 0,  // ids, sizes, addresses
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

/// A dynamically typed value. Small, cheaply copyable, hashable.
class Value {
 public:
  /// Shared storage behind one or many string values.
  using StringOwner = std::shared_ptr<const std::string>;

  Value() : v_(uint64_t{0}) {}
  explicit Value(uint64_t v) : v_(v) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v);
  /// A value referencing `len` bytes of `owner` at `off` — the arena path.
  static Value StringSlice(StringOwner owner, size_t off, size_t len);

  ValueType type() const { return static_cast<ValueType>(v_.index()); }

  uint64_t AsUint64() const { return std::get<uint64_t>(v_); }
  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  std::string_view AsString() const {
    return std::get<StringPiece>(v_).view();
  }
  /// The shared storage behind a string value (sharing diagnostics).
  const StringOwner& string_owner() const {
    return std::get<StringPiece>(v_).owner;
  }

  bool is_string() const { return type() == ValueType::kString; }

  /// A copy that owns exactly its own bytes: a string value backed by a
  /// shared batch arena is re-homed into a fresh allocation, so retaining
  /// the copy no longer pins the arena. Non-strings return themselves.
  Value Materialize() const {
    if (!is_string()) return *this;
    return Value(std::string(AsString()));
  }

  /// Stable 64-bit hash (DHT publishing key, join bucketing).
  uint64_t Hash() const;

  /// Serialized wire size in bytes (type tag included).
  size_t WireSize() const;

  void SerializeTo(BytesWriter* w) const;
  /// `arena`, when given, receives decoded string bytes (no per-string
  /// allocation); otherwise each string value gets its own allocation.
  static Result<Value> Deserialize(BytesReader* r,
                                   StringArena* arena = nullptr);

  /// Human-readable rendering for logs and examples.
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) {
    return !(a == b);
  }
  friend bool operator<(const Value& a, const Value& b);

 private:
  struct StringPiece {
    StringOwner owner;
    uint32_t off = 0;
    uint32_t len = 0;
    std::string_view view() const {
      return std::string_view(owner->data() + off, len);
    }
  };

  std::variant<uint64_t, int64_t, double, StringPiece> v_;
};

/// Packs decoded string bytes into one shared blob per batch: every string
/// value of the batch references a slice of the same allocation. A small
/// memo of recently appended slices dedups the keyword column that posting
/// lists repeat in every tuple.
class StringArena {
 public:
  /// A string value backed by this arena's blob.
  Value Append(std::string_view s);

 private:
  static constexpr size_t kMemoSlots = 4;
  struct Memo {
    uint32_t off = 0;
    uint32_t len = 0;
  };
  std::shared_ptr<std::string> blob_;
  std::array<Memo, kMemoSlots> memo_{};
  size_t memo_used_ = 0;
  size_t memo_next_ = 0;
};

}  // namespace pierstack::pier
