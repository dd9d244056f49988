// Schema and Tuple: PIER's relational data model (paper Section 3.1).
//
// A schema names its fields, declares their types, and designates one
// field as the DHT *publishing (index) key* — e.g. `keyword` for the
// Inverted table, `fileID` for the Item table.
//
// Tuple is a cheap handle onto a shared immutable row payload: copying a
// tuple (into join state, operator buffers, result sets) bumps a refcount
// instead of deep-copying a vector of Values. Rows are immutable once
// built, which is exactly the engine's usage — operators only ever build
// new rows.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pier/value.h"

namespace pierstack::pier {

struct Field {
  std::string name;
  ValueType type;
};

/// Table schema. Instances are created once and shared by pointer.
class Schema {
 public:
  /// `index_field`: which field's value keys the tuple in the DHT.
  Schema(std::string table_name, std::vector<Field> fields,
         size_t index_field);

  const std::string& table_name() const { return name_; }
  const std::vector<Field>& fields() const { return fields_; }
  size_t index_field() const { return index_field_; }
  size_t arity() const { return fields_.size(); }

  /// Index of a field by name; asserts it exists.
  size_t FieldIndex(const std::string& name) const;

 private:
  std::string name_;
  std::vector<Field> fields_;
  size_t index_field_;
};

/// A tuple: a row of Values conforming to some schema. A Tuple is a slice
/// handle onto a shared immutable column arena: copy = refcount bump, and
/// batch decoding materializes one arena for N tuples instead of N row
/// vectors (see TupleBatch).
class Tuple {
 public:
  using Payload = std::shared_ptr<const std::vector<Value>>;

  Tuple() = default;
  explicit Tuple(std::vector<Value> values)
      : values_(std::make_shared<const std::vector<Value>>(
            std::move(values))),
        len_(static_cast<uint32_t>(values_->size())) {}

  /// A view of `len` values of a shared arena starting at `begin`. The
  /// arena stays alive as long as any slice of it does.
  static Tuple Slice(Payload arena, size_t begin, size_t len) {
    Tuple t;
    t.values_ = std::move(arena);
    t.begin_ = static_cast<uint32_t>(begin);
    t.len_ = static_cast<uint32_t>(len);
    return t;
  }

  size_t arity() const { return len_; }
  const Value& at(size_t i) const { return (*values_)[begin_ + i]; }

  /// Row span (contiguous within the arena).
  const Value* begin() const {
    return values_ ? values_->data() + begin_ : nullptr;
  }
  const Value* end() const { return begin() + len_; }

  /// The shared payload itself (sharing diagnostics, arena-style reuse).
  const Payload& payload() const { return values_; }

  /// Value of the schema's DHT index field.
  const Value& IndexValue(const Schema& schema) const {
    return at(schema.index_field());
  }

  /// A compacted deep copy that owns exactly its own row: slice tuples of a
  /// large decode arena stop pinning the arena (columns and string blob)
  /// when only a few rows are retained long-term (result accumulators,
  /// caches). Cheap handle-copy semantics are preserved on the result.
  Tuple Materialize() const;

  /// left ++ right row concatenation (join output).
  static Tuple Concat(const Tuple& l, const Tuple& r);

  /// Serialized bytes (the engine's compact binary format — what PIER's
  /// Java serialization overhead is replaced with).
  std::vector<uint8_t> Serialize() const;
  void SerializeTo(BytesWriter* w) const;
  static Result<Tuple> Deserialize(const std::vector<uint8_t>& data);
  /// Streaming decode used by the batch path; `arena` receives decoded
  /// string bytes (one shared blob instead of per-string allocations).
  static Result<Tuple> DeserializeFrom(BytesReader* r,
                                       StringArena* arena = nullptr);

  /// Wire size without materializing the serialization.
  size_t WireSize() const;

  /// Field-wise rendering "(a, b, c)".
  std::string ToString() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    if (a.len_ != b.len_) return false;
    if (a.values_ == b.values_ && a.begin_ == b.begin_) return true;
    for (uint32_t i = 0; i < a.len_; ++i) {
      if (!(a.at(i) == b.at(i))) return false;
    }
    return true;
  }

 private:
  Payload values_;
  uint32_t begin_ = 0;  ///< Slice start within the arena.
  uint32_t len_ = 0;    ///< Row arity.
};

}  // namespace pierstack::pier
