#include "pier/schema.h"

#include <cassert>

namespace pierstack::pier {

Schema::Schema(std::string table_name, std::vector<Field> fields,
               size_t index_field)
    : name_(std::move(table_name)),
      fields_(std::move(fields)),
      index_field_(index_field) {
  assert(index_field_ < fields_.size());
}

size_t Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  assert(false && "unknown field");
  return SIZE_MAX;
}

Tuple Tuple::Materialize() const {
  if (len_ == 0) return Tuple();
  std::vector<Value> values;
  values.reserve(len_);
  for (const Value& v : *this) values.push_back(v.Materialize());
  return Tuple(std::move(values));
}

Tuple Tuple::Concat(const Tuple& l, const Tuple& r) {
  std::vector<Value> vals;
  vals.reserve(l.arity() + r.arity());
  vals.insert(vals.end(), l.begin(), l.end());
  vals.insert(vals.end(), r.begin(), r.end());
  return Tuple(std::move(vals));
}

std::vector<uint8_t> Tuple::Serialize() const {
  BytesWriter w;
  SerializeTo(&w);
  return w.Take();
}

void Tuple::SerializeTo(BytesWriter* w) const {
  w->PutVarint(arity());
  for (const Value& v : *this) v.SerializeTo(w);
}

Result<Tuple> Tuple::Deserialize(const std::vector<uint8_t>& data) {
  BytesReader r(data);
  return DeserializeFrom(&r);
}

Result<Tuple> Tuple::DeserializeFrom(BytesReader* r, StringArena* arena) {
  auto arity = r->GetVarint();
  if (!arity.ok()) return arity.status();
  // Every value costs at least one byte; a larger claimed arity is
  // corrupt input (and guards the reserve below against hostile sizes).
  if (arity.value() > r->remaining()) {
    return Status::Corruption("tuple arity exceeds payload");
  }
  std::vector<Value> values;
  values.reserve(static_cast<size_t>(arity.value()));
  for (uint64_t i = 0; i < arity.value(); ++i) {
    auto v = Value::Deserialize(r, arena);
    if (!v.ok()) return v.status();
    values.push_back(std::move(v).value());
  }
  return Tuple(std::move(values));
}

size_t Tuple::WireSize() const {
  size_t n = VarintSize(arity());
  for (const Value& v : *this) n += v.WireSize();
  return n;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < arity(); ++i) {
    if (i) out += ", ";
    out += at(i).ToString();
  }
  out += ")";
  return out;
}

}  // namespace pierstack::pier
