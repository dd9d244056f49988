// GuidTable against a reference model: a std::unordered_map of hops plus a
// std::deque of GUIDs in remember order, popped from the front (forgetting
// that GUID) while it is longer than the capacity. Every lookup must agree
// on "seen" and on the hop.
#include "gnutella/guid_table.h"

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>

#include "common/rng.h"

namespace pierstack::gnutella {
namespace {

class ReferenceRoutes {
 public:
  explicit ReferenceRoutes(size_t capacity) : capacity_(capacity) {}

  void Remember(Guid guid, sim::HostId hop) {
    hops_[guid] = hop;
    fifo_.push_back(guid);
    while (fifo_.size() > capacity_) {
      hops_.erase(fifo_.front());
      fifo_.pop_front();
    }
  }

  const sim::HostId* Find(Guid guid) const {
    auto it = hops_.find(guid);
    return it == hops_.end() ? nullptr : &it->second;
  }

  size_t size() const { return hops_.size(); }

 private:
  size_t capacity_;
  std::unordered_map<Guid, sim::HostId> hops_;
  std::deque<Guid> fifo_;
};

void ExpectSameLookup(const GuidTable& table, const ReferenceRoutes& ref,
                      Guid guid) {
  const sim::HostId* got = table.Find(guid);
  const sim::HostId* want = ref.Find(guid);
  ASSERT_EQ(got != nullptr, want != nullptr) << "guid " << guid;
  if (want != nullptr) {
    EXPECT_EQ(*got, *want) << "guid " << guid;
  }
}

/// A GUID pool mixing random GUIDs with the awkward ones: GUID 0 and
/// GUIDs that differ from each other only in their high bits.
std::vector<Guid> GuidPool(Rng* rng, size_t random_count) {
  std::vector<Guid> pool{0};
  for (Guid k = 1; k < 64; ++k) pool.push_back(k << 58);
  Guid base = rng->Next() & ((Guid{1} << 40) - 1);
  for (Guid k = 1; k < 64; ++k) pool.push_back(base | (k << 52));
  for (size_t i = 0; i < random_count; ++i) pool.push_back(rng->Next());
  return pool;
}

void RunDifferential(size_t capacity, uint64_t seed, size_t ops) {
  SCOPED_TRACE("capacity " + std::to_string(capacity));
  Rng rng(seed);
  // A pool a few times the capacity: remembers re-hit live GUIDs and
  // evicted ones alike, and lookups hit and miss.
  std::vector<Guid> pool = GuidPool(&rng, 3 * capacity + 50);
  GuidTable table(capacity);
  ReferenceRoutes ref(capacity);
  size_t remembers = 0;
  for (size_t i = 0; i < ops; ++i) {
    Guid guid = pool[rng.NextBelow(pool.size())];
    if (rng.NextBelow(2) == 0) {
      // kInvalidHost is a real hop value: a query rooted at this node.
      sim::HostId hop = rng.NextBelow(8) == 0
                            ? sim::kInvalidHost
                            : static_cast<sim::HostId>(rng.NextBelow(1000));
      table.Remember(guid, hop);
      ref.Remember(guid, hop);
      ++remembers;
    }
    ExpectSameLookup(table, ref, guid);
    ASSERT_EQ(table.size(), ref.size());
  }
  for (Guid guid : pool) ExpectSameLookup(table, ref, guid);
  EXPECT_GT(remembers, ops / 3);
}

TEST(GuidTableTest, MatchesReferenceAtCapacityOne) {
  RunDifferential(1, 11, 10000);
}

TEST(GuidTableTest, MatchesReferenceAtCapacitySeven) {
  RunDifferential(7, 12, 10000);
}

TEST(GuidTableTest, MatchesReferenceAtCapacityThousand) {
  RunDifferential(1000, 13, 40000);
}

TEST(GuidTableTest, GrowsThroughSeveralDoublings) {
  GuidTable table(1000);
  ReferenceRoutes ref(1000);
  Rng rng(14);
  std::vector<Guid> guids = GuidPool(&rng, 2000);
  for (size_t i = 0; i < guids.size(); ++i) {
    table.Remember(guids[i], static_cast<sim::HostId>(i));
    ref.Remember(guids[i], static_cast<sim::HostId>(i));
  }
  // 16 slots at first; 1000 live GUIDs at load <= 1/2 need >= 2048.
  EXPECT_GE(table.slot_count(), size_t{16} << 3);
  EXPECT_LE(table.size() * 2, table.slot_count());
  EXPECT_EQ(table.size(), 1000u);
  for (Guid guid : guids) ExpectSameLookup(table, ref, guid);
}

TEST(GuidTableTest, ReRememberingUpdatesTheHopButKeepsTheFirstEviction) {
  GuidTable table(3);
  table.Remember(10, 1);
  table.Remember(20, 2);
  table.Remember(10, 3);  // live: the hop moves, the first ring entry stays
  ASSERT_NE(table.Find(10), nullptr);
  EXPECT_EQ(*table.Find(10), 3u);
  table.Remember(30, 4);  // pops 10's first entry: 10 is forgotten
  EXPECT_EQ(table.Find(10), nullptr);
  ASSERT_NE(table.Find(20), nullptr);
  table.Remember(40, 5);  // pops 20
  table.Remember(50, 6);  // pops 10's second entry: nothing left to forget
  EXPECT_EQ(table.Find(20), nullptr);
  EXPECT_NE(table.Find(30), nullptr);
  EXPECT_NE(table.Find(40), nullptr);
  EXPECT_NE(table.Find(50), nullptr);
  EXPECT_EQ(table.size(), 3u);
}

TEST(GuidTableTest, CapacityOneForgetsAReRememberedGuid) {
  // The reference deque holds [g, g] after the second remember and pops
  // the front, forgetting g.
  GuidTable table(1);
  table.Remember(7, 1);
  ASSERT_NE(table.Find(7), nullptr);
  table.Remember(7, 2);
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(GuidTableTest, CapacityZeroRemembersNothing) {
  GuidTable table(0);
  table.Remember(0, 1);
  table.Remember(5, 2);
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(5), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(GuidTableTest, GuidZeroIsAnOrdinaryKey) {
  GuidTable table(4);
  EXPECT_EQ(table.Find(0), nullptr);
  table.Remember(0, sim::kInvalidHost);
  ASSERT_NE(table.Find(0), nullptr);
  EXPECT_EQ(*table.Find(0), sim::kInvalidHost);
}

TEST(GuidTableTest, DeletionShiftsEntriesBackAcrossTheWrapAround) {
  // Three GUIDs homed on the last of the 16 slots: the first sits there,
  // the other two wrap to slots 0 and 1. Evicting the first must pull
  // both back across the wrap, or they become unreachable.
  constexpr size_t kSlots = 16;
  std::vector<Guid> last, middle;
  for (Guid g = 1; last.size() < 3 || middle.size() < 2; ++g) {
    size_t home = GuidTable::HomeSlot(g, kSlots);
    if (home == kSlots - 1 && last.size() < 3) last.push_back(g);
    if (home == kSlots / 2 && middle.size() < 2) middle.push_back(g);
  }
  GuidTable table(3);
  table.Remember(last[0], 1);
  table.Remember(last[1], 2);
  table.Remember(last[2], 3);
  ASSERT_EQ(table.slot_count(), kSlots);
  table.Remember(middle[0], 4);  // evicts last[0]
  EXPECT_EQ(table.slot_count(), kSlots);
  EXPECT_EQ(table.Find(last[0]), nullptr);
  ASSERT_NE(table.Find(last[1]), nullptr);
  EXPECT_EQ(*table.Find(last[1]), 2u);
  ASSERT_NE(table.Find(last[2]), nullptr);
  EXPECT_EQ(*table.Find(last[2]), 3u);
  table.Remember(middle[1], 5);  // evicts last[1]
  EXPECT_EQ(table.Find(last[1]), nullptr);
  ASSERT_NE(table.Find(last[2]), nullptr);
  EXPECT_EQ(*table.Find(last[2]), 3u);
  ASSERT_NE(table.Find(middle[1]), nullptr);
  EXPECT_EQ(*table.Find(middle[1]), 5u);
}

TEST(GuidTableTest, ChurnAtHalfLoadAcrossTheWrapAround) {
  // Capacity 7 keeps the table at 16 slots with 8 GUIDs in it just before
  // each eviction. Half the GUIDs home on the last two slots, so probe
  // runs — and the backward shifts that deletions make in them — cross
  // the table's end all the time. Every live GUID is checked after every
  // remember.
  constexpr size_t kCapacity = 7;
  GuidTable table(kCapacity);
  ReferenceRoutes ref(kCapacity);
  Rng rng(15);
  std::deque<Guid> recent;
  for (size_t i = 0; i < 20000; ++i) {
    Guid guid = rng.Next();
    if (i % 2 == 0) {
      while (GuidTable::HomeSlot(guid, 16) < 14) guid = rng.Next();
    }
    table.Remember(guid, static_cast<sim::HostId>(i));
    ref.Remember(guid, static_cast<sim::HostId>(i));
    ASSERT_EQ(table.slot_count(), 16u);
    ASSERT_EQ(table.size(), ref.size());
    recent.push_back(guid);
    if (recent.size() > kCapacity + 2) recent.pop_front();
    for (Guid g : recent) ExpectSameLookup(table, ref, g);
  }
}

}  // namespace
}  // namespace pierstack::gnutella
