// Replica-aware single-key reads: with replication > 1, a Get/GetBatch
// routing through a node that already replicates the key stops there — the
// single-key analogue of the MultiGet peel — without ever changing the
// answer, and an empty replica store never short-circuits (replication lag
// must still resolve at the owner).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "dht/builder.h"

namespace pierstack::dht {
namespace {

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  explicit Cluster(size_t n, DhtOptions options) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 41);
    dht = std::make_unique<DhtDeployment>(network.get(), n, options, 909);
  }
};

DhtOptions Replicated(size_t replication) {
  DhtOptions o;
  o.replication = replication;
  return o;
}

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

void PutAll(Cluster* c, size_t keys) {
  for (uint64_t k = 0; k < keys; ++k) {
    c->dht->node(0)->Put("t", Mix64(k), Bytes("v" + std::to_string(k)));
  }
  c->simulator.Run();
}

/// Issues one Get per key from a rotating set of nodes; returns how many
/// answered with the exact expected value.
size_t GetAll(Cluster* c, size_t keys) {
  size_t correct = 0;
  for (uint64_t k = 0; k < keys; ++k) {
    c->dht->node((k * 7 + 3) % c->dht->size())
        ->Get("t", Mix64(k), [&correct, k](Status s, auto values) {
          if (!s.ok() || values.size() != 1) return;
          if (values[0] == Bytes("v" + std::to_string(k))) ++correct;
        });
  }
  c->simulator.Run();
  return correct;
}

/// Forwarding hops (puts and gets) of the 60-key workload below when every
/// read walks its route to the primary owner, as recorded under each
/// routing policy before owner-routed reads stopped being an option.
uint64_t OwnerRoutedHops(const DhtOptions& o) {
  return o.routing_policy == RoutingPolicyKind::kClassicChord ? 310 : 342;
}

TEST(ReplicaReadsTest, ReadsPeelAtPathReplicasWithExactAnswers) {
  const size_t kKeys = 60;
  Cluster c(32, Replicated(3));
  PutAll(&c, kKeys);

  // Every read answers with exactly the value stored under its key.
  EXPECT_EQ(GetAll(&c, kKeys), kKeys);
  // Some reads stopped at an in-path replica, so the routes are shorter
  // overall than walking every one to the owner.
  EXPECT_GT(c.dht->metrics().replica_peels, 0u);
  EXPECT_LT(c.dht->metrics().total_hops, OwnerRoutedHops(c.dht->options()));
}

TEST(ReplicaReadsTest, EmptyReplicaNeverShortCircuits) {
  // Reads for keys that were never stored must still resolve at the owner
  // as authoritative empties, not peel into wrong-but-fast answers.
  Cluster c(32, Replicated(3));
  PutAll(&c, 10);
  size_t empties = 0;
  for (uint64_t k = 100; k < 130; ++k) {
    c.dht->node(k % c.dht->size())
        ->Get("t", Mix64(k), [&empties](Status s, auto values) {
          if (s.ok() && values.empty()) ++empties;
        });
  }
  c.simulator.Run();
  EXPECT_EQ(empties, 30u);
}

TEST(ReplicaReadsTest, ReplicationOneIsUnaffected) {
  Cluster c(24, Replicated(1));
  PutAll(&c, 40);
  EXPECT_EQ(GetAll(&c, 40), 40u);
  EXPECT_EQ(c.dht->metrics().replica_peels, 0u);
}

}  // namespace
}  // namespace pierstack::dht
