// Dynamic membership: joins, graceful leaves, crashes and repair.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dht/builder.h"
#include "dht/chord.h"
#include "dht/node.h"

namespace pierstack::dht {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

struct Deployment {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  explicit Deployment(size_t n, size_t replication = 1) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(2 * sim::kMillisecond), 42);
    DhtOptions opts;
    opts.overlay = OverlayKind::kChord;
    opts.replication = replication;
    opts.maintenance = true;  // churn handling requires the timers
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 777);
  }

  void Settle(sim::SimTime duration = 30 * sim::kSecond) {
    simulator.RunFor(duration);
  }
};

TEST(ChurnTest, DynamicJoinBecomesReachable) {
  Deployment d(16);
  DhtNode* fresh = d.dht->AddNodeDynamic(0xfeed);
  d.Settle();
  EXPECT_TRUE(fresh->joined());
  // The new node's id region is now owned by it: a put for its own id must
  // land in its store.
  d.dht->node(2)->Put("ns", fresh->id(), Bytes("mine"));
  d.Settle(5 * sim::kSecond);
  EXPECT_EQ(fresh->store().Get("ns", fresh->id(), 0).size(), 1u);
}

TEST(ChurnTest, JoinTransfersExistingKeys) {
  Deployment d(8);
  // Publish many keys, then add a node; keys in its range must move to it.
  Rng rng(1);
  std::vector<Key> keys;
  for (int i = 0; i < 200; ++i) {
    Key k = rng.Next();
    keys.push_back(k);
    d.dht->node(0)->Put("ns", k, Bytes(std::to_string(i)));
  }
  d.Settle(5 * sim::kSecond);
  DhtNode* fresh = d.dht->AddNodeDynamic(0xbeef);
  d.Settle();
  ASSERT_TRUE(fresh->joined());
  // Every key must still be readable, including those now owned by fresh.
  int ok = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    d.dht->node(3)->Get("ns", keys[i], [&](Status s, auto values) {
      if (s.ok() && values.size() == 1) ++ok;
    });
  }
  d.Settle(5 * sim::kSecond);
  EXPECT_EQ(ok, 200);
  // And the fresh node actually holds something (its range is non-empty
  // with high probability given 200 random keys over 9 nodes).
  EXPECT_GT(fresh->store().TotalEntries(0), 0u);
}

TEST(ChurnTest, SequentialJoinsConverge) {
  Deployment d(8);
  for (int j = 0; j < 4; ++j) {
    d.dht->AddNodeDynamic(0x1000 + static_cast<uint64_t>(j));
    d.Settle(20 * sim::kSecond);
  }
  for (size_t i = 8; i < d.dht->size(); ++i) {
    EXPECT_TRUE(d.dht->node(i)->joined()) << i;
  }
  // After convergence, put/get works across old and new nodes.
  Key k = KeyForString("after-joins");
  d.dht->node(9)->Put("ns", k, Bytes("v"));
  d.Settle(5 * sim::kSecond);
  bool got = false;
  d.dht->node(11)->Get("ns", k, [&](Status s, auto values) {
    got = s.ok() && values.size() == 1;
  });
  d.Settle(5 * sim::kSecond);
  EXPECT_TRUE(got);
}

TEST(ChurnTest, GracefulLeaveHandsOffKeys) {
  Deployment d(12);
  Rng rng(2);
  std::vector<Key> keys;
  for (int i = 0; i < 150; ++i) {
    Key k = rng.Next();
    keys.push_back(k);
    d.dht->node(1)->Put("ns", k, Bytes("v" + std::to_string(i)));
  }
  d.Settle(5 * sim::kSecond);
  // Pick a node that holds some keys and has it leave gracefully.
  DhtNode* leaver = d.dht->node(5);
  size_t held = leaver->store().TotalEntries(0);
  leaver->LeaveGracefully();
  d.Settle();
  (void)held;
  // All keys must still be readable from the remaining nodes.
  int ok = 0;
  for (const Key& k : keys) {
    d.dht->node(2)->Get("ns", k, [&](Status s, auto values) {
      if (s.ok() && !values.empty()) ++ok;
    });
  }
  d.Settle(10 * sim::kSecond);
  EXPECT_EQ(ok, 150);
}

TEST(ChurnTest, CrashWithReplicationPreservesData) {
  Deployment d(12, /*replication=*/3);
  Rng rng(3);
  std::vector<Key> keys;
  for (int i = 0; i < 100; ++i) {
    Key k = rng.Next();
    keys.push_back(k);
    d.dht->node(0)->Put("ns", k, Bytes("v"));
  }
  d.Settle(5 * sim::kSecond);
  // Crash one node; successors hold replicas, stabilization repairs the
  // ring, so gets keep working.
  d.dht->node(7)->Crash();
  d.Settle(60 * sim::kSecond);
  int ok = 0;
  for (const Key& k : keys) {
    d.dht->node(1)->Get("ns", k, [&](Status s, auto values) {
      if (s.ok() && !values.empty()) ++ok;
    });
  }
  d.Settle(30 * sim::kSecond);
  // All keys must survive a single crash with replication 3.
  EXPECT_EQ(ok, 100);
}

TEST(ChurnTest, RingRepairsAfterCrash) {
  Deployment d(16);
  d.Settle(10 * sim::kSecond);
  d.dht->node(4)->Crash();
  d.Settle(60 * sim::kSecond);
  // No live node should still list the crashed host as successor.
  sim::HostId dead = d.dht->node(4)->host();
  for (size_t i = 0; i < d.dht->size(); ++i) {
    if (i == 4) continue;
    auto& chord = static_cast<ChordRouting&>(d.dht->node(i)->routing());
    EXPECT_NE(chord.successor().host, dead) << "node " << i;
  }
  // Routing still works for keys formerly owned by the crashed node: a
  // message routed to the dead node's id lands once, at a live node, and
  // that node is the key's owner under the repaired ring.
  constexpr int kProbeApp = kAppUserBase + 3;
  std::vector<sim::HostId> landed;
  for (size_t i = 0; i < d.dht->size(); ++i) {
    d.dht->node(i)->SetUpcallHandler(kProbeApp, [&, i](const RouteMsg&) {
      landed.push_back(d.dht->node(i)->host());
    });
  }
  Key dead_id = d.dht->node(4)->id();
  d.dht->node(0)->Route(dead_id, kProbeApp, nullptr, 0);
  d.Settle(10 * sim::kSecond);
  ASSERT_EQ(landed.size(), 1u);
  EXPECT_NE(landed[0], dead);
  EXPECT_EQ(landed[0], d.dht->ExpectedOwner(dead_id)->host());
}

TEST(ChurnTest, StabilizationRunsContinuously) {
  Deployment d(8);
  d.Settle(20 * sim::kSecond);
  // A dynamically joined node keeps exchanging stabilize rounds with its
  // successor for as long as it is up.
  DhtNode* fresh = d.dht->AddNodeDynamic(0xabc);
  d.Settle(20 * sim::kSecond);
  EXPECT_GT(fresh->stabilize_rounds(), 5u);
}

}  // namespace
}  // namespace pierstack::dht
