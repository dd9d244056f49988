// Owner location cache: arc learning from routed replies, the one-hop
// fast path, staleness fallback, and the replica interaction rules.
#include "dht/route_cache.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dht/builder.h"
#include "dht/node.h"

namespace pierstack::dht {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

OwnerHint Hint(Key arc_start, Key arc_end, NodeInfo owner) {
  OwnerHint h;
  h.owner = owner;
  h.arc_start = arc_start;
  h.arc_end = arc_end;
  h.valid = true;
  return h;
}

// --- RouteCache unit tests -------------------------------------------------

TEST(RouteCacheTest, LookupFindsCoveringArc) {
  RouteCache cache;
  NodeInfo a{100, 1}, b{200, 2};
  cache.Teach(Hint(50, 100, a));
  cache.Teach(Hint(100, 200, b));
  EXPECT_EQ(cache.Lookup(80).host, a.host);
  EXPECT_EQ(cache.Lookup(100).host, a.host);  // arc end inclusive
  EXPECT_EQ(cache.Lookup(101).host, b.host);
  EXPECT_EQ(cache.Lookup(150).host, b.host);
  EXPECT_FALSE(cache.Lookup(50).valid());   // arc start exclusive
  EXPECT_FALSE(cache.Lookup(300).valid());  // uncovered
}

TEST(RouteCacheTest, LookupWrapsAroundRingOrigin) {
  RouteCache cache;
  // The arc straddling key 0: (2^64 - 100, 50].
  NodeInfo wrap{50, 7};
  cache.Teach(Hint(static_cast<Key>(0) - 100, 50, wrap));
  EXPECT_EQ(cache.Lookup(0).host, wrap.host);
  EXPECT_EQ(cache.Lookup(static_cast<Key>(0) - 5).host, wrap.host);
  EXPECT_EQ(cache.Lookup(50).host, wrap.host);
  EXPECT_FALSE(cache.Lookup(51).valid());
}

TEST(RouteCacheTest, TeachReportsReplacedOwnerAsStale) {
  RouteCache cache;
  NodeInfo a{100, 1}, b{100, 2};
  EXPECT_FALSE(cache.Teach(Hint(50, 100, a)));
  EXPECT_FALSE(cache.Teach(Hint(50, 100, a)));  // refresh: same owner
  EXPECT_TRUE(cache.Teach(Hint(60, 100, b)));   // ownership moved
  EXPECT_EQ(cache.Lookup(90).host, b.host);
}

TEST(RouteCacheTest, ForgetHostDropsAllItsArcs) {
  RouteCache cache;
  NodeInfo a{100, 1}, b{200, 2};
  cache.Teach(Hint(50, 100, a));
  cache.Teach(Hint(100, 200, b));
  cache.ForgetHost(1);
  EXPECT_FALSE(cache.Lookup(80).valid());
  EXPECT_EQ(cache.Lookup(150).host, b.host);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RouteCacheTest, CapacityEvictsOldestTaughtArc) {
  RouteCache cache(/*capacity=*/4);
  for (Key i = 0; i < 6; ++i) {
    cache.Teach(Hint(i * 100, i * 100 + 50,
                     NodeInfo{i * 100 + 50, static_cast<sim::HostId>(i)}));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.Lookup(25).valid());    // arc 0: evicted
  EXPECT_FALSE(cache.Lookup(125).valid());   // arc 1: evicted
  EXPECT_TRUE(cache.Lookup(525).valid());    // newest survives
}

TEST(RouteCacheTest, FenceEpochPurgesOldEntriesAndReportsCount) {
  RouteCache cache;
  NodeInfo a{100, 1}, b{200, 2};
  cache.Teach(Hint(50, 100, a));
  cache.Teach(Hint(100, 200, b));
  ASSERT_EQ(cache.size(), 2u);

  // The fence drops every arc taught under the old epoch and says how
  // many — the caller's dht.route_cache_stale increment.
  EXPECT_EQ(cache.FenceEpoch(), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(80).valid());
  EXPECT_FALSE(cache.Lookup(150).valid());

  // An arc re-taught under the new epoch serves lookups again, and is in
  // turn purged (and counted) when the epoch moves once more.
  cache.Teach(Hint(50, 100, a));
  EXPECT_EQ(cache.Lookup(80).host, a.host);
  EXPECT_EQ(cache.FenceEpoch(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RouteCacheTest, StaleExactKeyEntryDoesNotMaskWiderArc) {
  RouteCache cache;
  NodeInfo owner{1000, 1}, stale{77, 9};
  cache.Teach(Hint(500, 1000, owner));
  // A stale degenerate hint sits inside the live arc.
  cache.Teach(Hint(699, 700, stale));
  // Keys past the exact entry still resolve through the wider arc.
  EXPECT_EQ(cache.Lookup(800).host, owner.host);
  EXPECT_EQ(cache.Lookup(700).host, stale.host);
  // The probe walks past the non-covering exact entry.
  EXPECT_EQ(cache.Lookup(650).host, owner.host);
}

// --- Differential check against a std::map reference ----------------------

/// The cache's contract as an ordered map from arc end to entry, with the
/// same three-probe wrapping lookup, oldest-seq eviction and epoch fence.
class ReferenceCache {
 public:
  explicit ReferenceCache(size_t capacity) : capacity_(capacity) {}

  NodeInfo Lookup(Key target) const {
    if (arcs_.empty()) return NodeInfo{};
    auto it = arcs_.lower_bound(target);
    for (int i = 0; i < 3; ++i) {
      if (it == arcs_.end()) it = arcs_.begin();
      if (it->second.epoch == epoch_ &&
          InOpenClosed(it->second.arc_start, it->first, target)) {
        return it->second.owner;
      }
      ++it;
    }
    return NodeInfo{};
  }

  bool Teach(const OwnerHint& hint) {
    if (!hint.valid || !hint.owner.valid()) return false;
    auto it = arcs_.find(hint.arc_end);
    bool replaced = it != arcs_.end() && it->second.epoch == epoch_ &&
                    it->second.owner.host != hint.owner.host;
    arcs_[hint.arc_end] = Entry{hint.arc_start, hint.owner, seq_++, epoch_};
    if (arcs_.size() > capacity_) {
      auto oldest = arcs_.begin();
      for (auto e = arcs_.begin(); e != arcs_.end(); ++e) {
        if (e->second.seq < oldest->second.seq) oldest = e;
      }
      arcs_.erase(oldest);
    }
    return replaced;
  }

  void ForgetHost(sim::HostId host) {
    for (auto it = arcs_.begin(); it != arcs_.end();) {
      it = it->second.owner.host == host ? arcs_.erase(it) : std::next(it);
    }
  }

  size_t FenceEpoch() {
    ++epoch_;
    size_t purged = 0;
    for (auto it = arcs_.begin(); it != arcs_.end();) {
      if (it->second.epoch != epoch_) {
        it = arcs_.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
    return purged;
  }

  size_t size() const { return arcs_.size(); }

 private:
  struct Entry {
    Key arc_start = 0;
    NodeInfo owner;
    uint64_t seq = 0;
    uint64_t epoch = 0;
  };
  std::map<Key, Entry> arcs_;
  size_t capacity_;
  uint64_t seq_ = 0;
  uint64_t epoch_ = 0;
};

TEST(RouteCacheDifferentialTest, RandomOperationsMatchMapReference) {
  // Arc ends cluster around the ring origin so arcs wrap it and lookups
  // past the largest end must wrap to the smallest.
  const std::vector<Key> kEnds = {0,   5,   10,  40,  100, 101, 1000,
                                  ~Key{0}, ~Key{0} - 7, ~Key{0} - 500};
  for (size_t capacity : {size_t{1}, size_t{7}, size_t{256}}) {
    size_t hits = 0;  // lookups that found an arc: the check is not vacuous
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(seed * 31 + capacity);
      RouteCache cache(capacity);
      ReferenceCache ref(capacity);
      auto end = [&]() -> Key {
        // Mostly the clustered pool; sometimes a fresh random end so the
        // 256-arc cache fills past its capacity.
        if (rng.NextBelow(4) == 0) return rng.Next();
        return kEnds[rng.NextBelow(kEnds.size())];
      };
      for (int op = 0; op < 3000; ++op) {
        SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                     std::to_string(seed) + " op " + std::to_string(op));
        switch (rng.NextBelow(10)) {
          case 0:
          case 1:
          case 2:
          case 3: {
            Key arc_end = end();
            // Widths: an exact-key arc (k - 1, k], which layers a stale
            // entry inside wider arcs, a short arc, or a wide one that
            // often wraps the origin.
            Key width = 1;
            switch (rng.NextBelow(3)) {
              case 0: width = 1; break;
              case 1: width = 1 + rng.NextBelow(200); break;
              case 2: width = rng.Next() >> rng.NextBelow(64); break;
            }
            NodeInfo owner{arc_end, static_cast<sim::HostId>(
                                        rng.NextBelow(12))};
            OwnerHint hint = Hint(arc_end - width, arc_end, owner);
            hint.valid = rng.NextBelow(20) != 0;
            ASSERT_EQ(cache.Teach(hint), ref.Teach(hint));
            break;
          }
          case 4:
          case 5:
          case 6:
          case 7: {
            Key target = rng.NextBelow(3) == 0
                             ? rng.Next()
                             : end() + rng.NextBelow(5) - 2;
            NodeInfo got = cache.Lookup(target), want = ref.Lookup(target);
            ASSERT_EQ(got.valid(), want.valid()) << "target " << target;
            if (want.valid()) {
              ASSERT_TRUE(got == want) << "target " << target;
              ++hits;
            }
            break;
          }
          case 8: {
            auto host = static_cast<sim::HostId>(rng.NextBelow(12));
            cache.ForgetHost(host);
            ref.ForgetHost(host);
            break;
          }
          case 9:
            if (rng.NextBelow(10) == 0) {
              ASSERT_EQ(cache.FenceEpoch(), ref.FenceEpoch());
            }
            break;
        }
        ASSERT_EQ(cache.size(), ref.size());
      }
    }
    EXPECT_GT(hits, 1000u) << "capacity " << capacity;
  }
}

// --- DhtNode integration ---------------------------------------------------

struct Deployment {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  explicit Deployment(size_t n, size_t replication = 1,
                      bool cache_on = true) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 99);
    DhtOptions opts;
    opts.replication = replication;
    opts.routing_policy = RoutingPolicyKind::kCongestionAware;
    opts.owner_location_cache = cache_on;
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 4321);
  }
};

/// A node whose ring route toward `k` is at least two hops (its greedy
/// first hop is not the owner) — makes cold-vs-warm hop counts
/// deterministic instead of depending on finger luck. Nodes that already
/// routed toward `k` (e.g. the publisher, whose own put warmed its cache)
/// are excluded via `skip`.
DhtNode* MultiHopReader(DhtDeployment* dht, Key k, DhtNode* skip = nullptr) {
  DhtNode* owner = dht->ExpectedOwner(k);
  for (size_t i = 0; i < dht->size(); ++i) {
    DhtNode* n = dht->node(i);
    if (n == owner || n == skip) continue;
    if (n->routing().NextHop(k).host != owner->host()) return n;
  }
  return nullptr;
}

TEST(RouteCacheNodeTest, RepeatedGetsConvergeToOneHop) {
  Deployment d(48);
  Key k = KeyForString("hot-posting-list");
  d.dht->node(0)->Put("inv", k, Bytes("v"));
  d.simulator.Run();

  DhtNode* reader = MultiHopReader(d.dht.get(), k, d.dht->node(0));
  ASSERT_NE(reader, nullptr);
  auto get_once = [&]() {
    bool ok = false;
    reader->Get("inv", k, [&](Status s, auto values) {
      ok = s.ok() && values.size() == 1;
    });
    d.simulator.Run();
    EXPECT_TRUE(ok);
  };
  // Cold: the reply teaches the owner's arc.
  uint64_t hops_before = d.dht->metrics().total_hops;
  get_once();
  uint64_t cold_hops = d.dht->metrics().total_hops - hops_before;
  ASSERT_GT(cold_hops, 1u) << "test needs a multi-hop cold route";

  // Warm: the same reader reaches the owner in exactly one hop.
  hops_before = d.dht->metrics().total_hops;
  uint64_t hits_before = d.dht->metrics().route_cache_hits;
  get_once();
  EXPECT_EQ(d.dht->metrics().total_hops - hops_before, 1u);
  EXPECT_EQ(d.dht->metrics().route_cache_hits - hits_before, 1u);
  EXPECT_GT(d.dht->metrics().hops_saved, 0u);
}

TEST(RouteCacheNodeTest, ArcCoversSiblingKeysOfTheSameOwner) {
  Deployment d(16);
  // With 16 nodes the owner's arc spans many keys: learning it from ONE
  // reply must serve other keys of the same owner cache-hot.
  Key k1 = KeyForString("first");
  DhtNode* owner = d.dht->ExpectedOwner(k1);
  // Find a second key with the same owner.
  Key k2 = 0;
  for (uint64_t i = 1; i < 10000; ++i) {
    Key cand = Mix64(i);  // well-spread probes across the whole ring
    if (cand != k1 && d.dht->ExpectedOwner(cand) == owner) {
      k2 = cand;
      break;
    }
  }
  ASSERT_NE(k2, 0u) << "no sibling key found";
  d.dht->node(0)->Put("inv", k1, Bytes("a"));
  d.dht->node(0)->Put("inv", k2, Bytes("b"));
  d.simulator.Run();

  DhtNode* reader = d.dht->node(5) == owner ? d.dht->node(6) : d.dht->node(5);
  bool ok = false;
  reader->Get("inv", k1, [&](Status s, auto v) {
    ok = s.ok() && v.size() == 1;
  });
  d.simulator.Run();
  ASSERT_TRUE(ok);

  // k2 was never routed by this reader, yet the learned arc covers it.
  uint64_t hops_before = d.dht->metrics().total_hops;
  uint64_t hits_before = d.dht->metrics().route_cache_hits;
  ok = false;
  reader->Get("inv", k2, [&](Status s, auto v) {
    ok = s.ok() && v.size() == 1;
  });
  d.simulator.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(d.dht->metrics().route_cache_hits - hits_before, 1u);
  EXPECT_EQ(d.dht->metrics().total_hops - hops_before, 1u);
}

TEST(RouteCacheNodeTest, UnackedPutsTeachThroughStandaloneHints) {
  Deployment d(48);
  Key k = KeyForString("publish-destination");
  DhtNode* writer = MultiHopReader(d.dht.get(), k);
  ASSERT_NE(writer, nullptr);
  // No callback => no ack; the owner teaches with a standalone hint.
  writer->Put("inv", k, Bytes("v1"));
  d.simulator.Run();
  uint64_t hint_msgs = d.network->metrics().by_tag["dht.hint"].messages;
  // The cold put took >1 hop, so a hint must have been sent.
  EXPECT_GT(hint_msgs, 0u);
  // The second publish to the same key goes direct.
  uint64_t hops_before = d.dht->metrics().total_hops;
  writer->Put("inv", k, Bytes("v2"));
  d.simulator.Run();
  EXPECT_EQ(d.dht->metrics().total_hops - hops_before, 1u);
  EXPECT_GT(d.dht->metrics().route_cache_hits, 0u);
  // And teaches nothing new: hint chatter is warmup-only.
  EXPECT_EQ(d.network->metrics().by_tag["dht.hint"].messages, hint_msgs);
}

TEST(RouteCacheNodeTest, ClassicPolicyDisablesCacheAndHints) {
  DhtOptions classic;
  classic.routing_policy = RoutingPolicyKind::kClassicChord;
  sim::SerialExecutor simulator;
  sim::Network network(&simulator,
                       std::make_unique<sim::ConstantLatency>(
                           5 * sim::kMillisecond),
                       99);
  DhtDeployment dht(&network, 48, classic, 4321);
  Key k = KeyForString("hot-posting-list");
  dht.node(0)->Put("inv", k, Bytes("v"));
  simulator.Run();
  for (int i = 0; i < 3; ++i) {
    bool ok = false;
    dht.node(17)->Get("inv", k, [&](Status s, auto values) {
      ok = s.ok() && values.size() == 1;
    });
    simulator.Run();
    EXPECT_TRUE(ok);
  }
  EXPECT_EQ(dht.metrics().route_cache_hits, 0u);
  EXPECT_EQ(dht.metrics().route_cache_misses, 0u);
  EXPECT_EQ(dht.metrics().congestion_detours, 0u);
  EXPECT_EQ(network.metrics().by_tag.count("dht.hint"), 0u);
}

// --- Replica interaction (regression: the Has-gated peel rule survives
// --- the fast path) --------------------------------------------------------

TEST(RouteCacheNodeTest, StaleCacheEntryAtEmptyReplicaNeverShortCircuits) {
  Deployment d(24, /*replication=*/3);
  Key k = KeyForString("replicated-key");
  DhtNode* owner = d.dht->ExpectedOwner(k);

  // A replica of k's owner that holds NO data under (inv, k): ownership
  // moved, replication lagged, or the entry was manufactured stale — the
  // cache may legitimately point there.
  auto replicas = owner->routing().ReplicaTargets(2);
  ASSERT_FALSE(replicas.empty());
  DhtNode* empty_replica = nullptr;
  for (size_t i = 0; i < d.dht->size(); ++i) {
    if (d.dht->node(i)->host() == replicas[0].host) {
      empty_replica = d.dht->node(i);
      break;
    }
  }
  ASSERT_NE(empty_replica, nullptr);

  // Store the value at the owner ONLY (bypass replication: direct store
  // write models replication lag at the replicas).
  owner->store().Put("inv", k, Bytes("authoritative"));
  ASSERT_TRUE(empty_replica->store().Get("inv", k, 0).empty());

  // Poison the reader's cache: the remembered "owner" of k's whole
  // neighborhood is the empty replica.
  DhtNode* reader = nullptr;
  for (size_t i = 0; i < d.dht->size(); ++i) {
    DhtNode* n = d.dht->node(i);
    if (n != owner && n->host() != empty_replica->host()) {
      reader = n;
      break;
    }
  }
  ASSERT_NE(reader, nullptr);
  OwnerHint stale;
  stale.owner = empty_replica->info();
  stale.arc_start = k - 1;
  stale.arc_end = k;
  stale.valid = true;
  reader->route_cache().Teach(stale);

  // The Get fast-paths to the empty replica. It is NOT the owner and has
  // an EMPTY store, so the Has-gated peel rule must forward the request to
  // the authoritative owner instead of answering empty.
  Status status = Status::Internal("callback not called");
  std::vector<std::vector<uint8_t>> got;
  reader->Get("inv", k, [&](Status s, auto values) {
    status = s;
    got = std::move(values);
  });
  d.simulator.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Bytes("authoritative"));
  EXPECT_GT(d.dht->metrics().route_cache_hits, 0u);
}

TEST(RouteCacheNodeTest, CachedReplicaHoldingDataMayPeel) {
  // The flip side: a fast path landing on a replica that DOES hold the
  // data answers in the owner's stead (the single-key peel), still a
  // correct, non-empty answer.
  Deployment d(24, /*replication=*/3);
  Key k = KeyForString("replicated-key");
  d.dht->node(0)->Put("inv", k, Bytes("v"));
  d.simulator.Run();

  DhtNode* owner = d.dht->ExpectedOwner(k);
  auto replicas = owner->routing().ReplicaTargets(2);
  ASSERT_FALSE(replicas.empty());

  DhtNode* reader = nullptr;
  for (size_t i = 0; i < d.dht->size(); ++i) {
    DhtNode* n = d.dht->node(i);
    if (n != owner && n->host() != replicas[0].host &&
        n->store().Get("inv", k, 0).empty()) {
      reader = n;
      break;
    }
  }
  ASSERT_NE(reader, nullptr);
  OwnerHint stale;
  stale.owner = replicas[0];
  stale.arc_start = k - 1;
  stale.arc_end = k;
  stale.valid = true;
  reader->route_cache().Teach(stale);

  uint64_t peels_before = d.dht->metrics().replica_peels;
  std::vector<std::vector<uint8_t>> got;
  Status status = Status::Internal("callback not called");
  reader->Get("inv", k, [&](Status s, auto values) {
    status = s;
    got = std::move(values);
  });
  d.simulator.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Bytes("v"));
  EXPECT_EQ(d.dht->metrics().replica_peels, peels_before + 1);
}

TEST(RouteCacheNodeTest, StaticRebuildClearsLearnedArcs) {
  Deployment d(16);
  Key k = KeyForString("epoch-key");
  d.dht->node(0)->Put("inv", k, Bytes("v"));
  d.simulator.Run();
  bool ok = false;
  d.dht->node(5)->Get("inv", k, [&](Status s, auto v) {
    ok = s.ok() && v.size() == 1;
  });
  d.simulator.Run();
  ASSERT_TRUE(ok);
  EXPECT_GT(d.dht->node(5)->route_cache().size(), 0u);
  // Membership epoch change: every node's learned state restarts cold.
  d.dht->RebuildStaticTables();
  EXPECT_EQ(d.dht->node(5)->route_cache().size(), 0u);
}

}  // namespace
}  // namespace pierstack::dht
