#include "gnutella/guid_table.h"

namespace pierstack::gnutella {

void GuidTable::Remember(Guid guid, sim::HostId hop) {
  Upsert(guid, hop);
  if (ring_.size() < capacity_) {
    ring_.push_back(guid);  // not full yet: nothing to evict
    return;
  }
  // Full ring: the new GUID takes the oldest entry's place, and the GUID
  // that entry named is forgotten — even when it is `guid` itself.
  Guid oldest = guid;
  if (capacity_ > 0) {
    oldest = ring_[head_];
    ring_[head_] = guid;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }
  Erase(oldest);
}

const sim::HostId* GuidTable::Find(Guid guid) const {
  size_t s = SlotOf(guid);
  return s == slots_.size() ? nullptr : &slots_[s].hop;
}

size_t GuidTable::SlotOf(Guid guid) const {
  if (slots_.empty()) return 0;
  size_t mask = slots_.size() - 1;
  for (size_t s = HomeSlot(guid, slots_.size());; s = (s + 1) & mask) {
    if (!slots_[s].used) return slots_.size();
    if (slots_[s].guid == guid) return s;
  }
}

void GuidTable::Upsert(Guid guid, sim::HostId hop) {
  if ((size_ + 1) * 2 > slots_.size()) Grow();
  size_t mask = slots_.size() - 1;
  size_t s = HomeSlot(guid, slots_.size());
  while (slots_[s].used && slots_[s].guid != guid) s = (s + 1) & mask;
  if (!slots_[s].used) ++size_;
  slots_[s] = Slot{guid, hop, true};
}

void GuidTable::Erase(Guid guid) {
  size_t hole = SlotOf(guid);
  if (hole == slots_.size()) return;
  // Backward shift: walk the rest of the probe run and pull back every
  // entry whose home slot does not lie strictly between the hole and it.
  size_t mask = slots_.size() - 1;
  for (size_t s = (hole + 1) & mask; slots_[s].used; s = (s + 1) & mask) {
    size_t home = HomeSlot(slots_[s].guid, slots_.size());
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      slots_[hole] = slots_[s];
      hole = s;
    }
  }
  slots_[hole].used = false;
  --size_;
}

void GuidTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{0, 0, false});
  size_t mask = slots_.size() - 1;
  for (const Slot& e : old) {
    if (!e.used) continue;
    size_t s = HomeSlot(e.guid, slots_.size());
    while (slots_[s].used) s = (s + 1) & mask;
    slots_[s] = e;
  }
}

}  // namespace pierstack::gnutella
