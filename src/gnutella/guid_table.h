// GuidTable: a node's duplicate-suppression and reverse-path table for
// query GUIDs.
//
// One flat open-addressing table maps each remembered GUID to the hop its
// query arrived from, so a flood hop's "seen?" check and a query hit's
// reverse-route lookup are each a single linear probe. The slot table
// keeps its load at or below 1/2 (it doubles before an insert would pass
// that) and deletes by backward shift, so probes never meet tombstones.
//
// Eviction is FIFO by remember order: every Remember appends the GUID to
// a ring, and once the ring holds more than `capacity` entries the oldest
// is popped and its GUID forgotten. A GUID remembered twice therefore
// occupies two ring entries and is forgotten when the first of them pops.
#pragma once

#include <cstddef>
#include <vector>

#include "gnutella/types.h"

namespace pierstack::gnutella {

class GuidTable {
 public:
  explicit GuidTable(size_t capacity) : capacity_(capacity) {}

  /// Records `hop` as the reverse-path hop of `guid` (replacing the hop of
  /// a live entry), then forgets the oldest GUID once more than `capacity`
  /// remembers are outstanding.
  void Remember(Guid guid, sim::HostId hop);

  /// The remembered hop of `guid`, or nullptr if `guid` is not remembered.
  /// The pointer is valid until the next Remember.
  const sim::HostId* Find(Guid guid) const;

  /// Number of GUIDs currently remembered.
  size_t size() const { return size_; }

  /// Current slot-table size (0 before the first Remember).
  size_t slot_count() const { return slots_.size(); }

  /// The slot a GUID's probe starts at in a table of `slot_count` slots (a
  /// power of two, at least 2): the top bits of a Fibonacci product, so
  /// GUIDs that differ only in their high or only in their low bits still
  /// spread. Exposed so tests can build colliding GUIDs.
  static size_t HomeSlot(Guid guid, size_t slot_count) {
    return static_cast<size_t>((guid * 0x9e3779b97f4a7c15ULL) >>
                               (64 - __builtin_ctzll(slot_count)));
  }

 private:
  struct Slot {
    Guid guid;
    sim::HostId hop;
    bool used;
  };

  size_t SlotOf(Guid guid) const;  // slot holding `guid`, or slots_.size()
  void Upsert(Guid guid, sim::HostId hop);
  void Erase(Guid guid);
  void Grow();

  size_t capacity_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
  std::vector<Guid> ring_;  // remember order; oldest at head_ once full
  size_t head_ = 0;
};

}  // namespace pierstack::gnutella
