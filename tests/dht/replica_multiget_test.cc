// Replica-aware MultiGet: with replication > 1 the chained scatter hands
// the remainder to replica holders (one hop peels several owners' key
// ranges), visiting fewer nodes and routing fewer hops than walking the
// K-owner chain while returning the exact answer set.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/hashing.h"
#include "dht/builder.h"

namespace pierstack::dht {
namespace {

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  Cluster(size_t n, size_t replication) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 17);
    DhtOptions opts;
    opts.replication = replication;
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 909);
  }

  /// Stores one value per key via the DHT (replicated) and returns keys.
  std::vector<Key> PublishKeys(size_t count) {
    std::vector<Key> keys;
    for (uint64_t i = 1; i <= count; ++i) {
      Key k = Mix64(i * 0x9e3779b97f4a7c15ULL);
      keys.push_back(k);
      std::string payload = Payload(i);
      dht->node(0)->Put("items", k,
                        std::vector<uint8_t>(payload.begin(), payload.end()));
    }
    simulator.Run();
    return keys;
  }

  static std::string Payload(uint64_t i) {
    return "value-" + std::to_string(i);
  }

  /// MultiGet from node 1; returns key -> answered batch image.
  std::map<Key, std::vector<uint8_t>> FetchImages(const std::vector<Key>& keys,
                                                  Status* status) {
    std::map<Key, std::vector<uint8_t>> got;
    dht->node(1)->MultiGet(
        "items", keys,
        [&](Status s, std::vector<DhtNode::MultiGetItem> items) {
          *status = s;
          for (const auto& item : items) {
            got[item.key] = item.batch ? *item.batch : std::vector<uint8_t>{};
          }
        });
    simulator.Run();
    return got;
  }

  /// MultiGet from node 1; returns key -> batch image size.
  std::map<Key, size_t> Fetch(const std::vector<Key>& keys, Status* status) {
    std::map<Key, size_t> got;
    for (const auto& [k, image] : FetchImages(keys, status)) {
      got[k] = image.size();
    }
    return got;
  }
};

TEST(ReplicaMultiGetTest, ExactAnswersWithFewerVisitsAndHops) {
  const size_t kNodes = 24, kKeys = 64;
  // The same fetch walking the primary-owner chain instead, as recorded
  // (under both routing policies) before that walk stopped being an
  // option: 16 visited nodes, 23 routed hops.
  const uint64_t kOwnerChainVisits = 16, kOwnerChainHops = 23;
  Cluster c(kNodes, 2);
  auto keys = c.PublishKeys(kKeys);
  uint64_t route_msgs_before =
      c.network->metrics().by_tag["dht.route"].messages;

  Status s = Status::Internal("unset");
  std::map<Key, std::vector<uint8_t>> got = c.FetchImages(keys, &s);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Exact answers: every key's batch image holds exactly its one stored
  // value (a count-1 prefix, then the value's bytes).
  std::map<Key, std::vector<uint8_t>> want;
  for (size_t i = 0; i < keys.size(); ++i) {
    std::string payload = Cluster::Payload(i + 1);
    std::vector<uint8_t>& image = want[keys[i]];
    image.push_back(1);
    image.insert(image.end(), payload.begin(), payload.end());
  }
  EXPECT_EQ(got, want);

  // The replica-aware scatter visits fewer nodes (multi_gets counts one
  // routed message per visited node) and routes fewer hops overall.
  EXPECT_LT(c.dht->metrics().multi_gets, kOwnerChainVisits);
  uint64_t hops =
      c.network->metrics().by_tag["dht.route"].messages - route_msgs_before;
  EXPECT_LT(hops, kOwnerChainHops);
  EXPECT_GT(c.dht->metrics().replica_peels, 0u);
  EXPECT_GT(c.dht->metrics().replica_skips, 0u);
}

TEST(ReplicaMultiGetTest, ReplicationOneNeverPeels) {
  Cluster c(16, 1);
  auto keys = c.PublishKeys(32);
  Status s = Status::Internal("unset");
  auto got = c.Fetch(keys, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(got.size(), 32u);
  EXPECT_EQ(c.dht->metrics().replica_peels, 0u);
  EXPECT_EQ(c.dht->metrics().replica_skips, 0u);
}

TEST(ReplicaMultiGetTest, MissingKeysStillAnsweredEmptyByOwners) {
  Cluster c(16, 3);
  c.PublishKeys(16);
  // Keys never stored anywhere: a replica holding no data must NOT claim
  // them (an empty replica store could be replication lag), so each must
  // flow on to its owner and come back answered empty.
  std::vector<Key> missing;
  for (uint64_t i = 1; i <= 40; ++i) {
    missing.push_back(Mix64(i * 0xdeadbeefULL));
  }
  Status s = Status::Internal("unset");
  std::map<Key, size_t> got = c.Fetch(missing, &s);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(got.size(), missing.size());
  for (const auto& [k, bytes] : got) {
    EXPECT_EQ(bytes, 1u) << k;  // the canonical empty batch image
  }
}

TEST(ReplicaMultiGetTest, EmptyReplicaNeverClaimsAKeyTheOwnerHolds) {
  // Replica copies travel one extra hop after the owner stores; an arc
  // handoff meeting a not-yet-copied key must pass it on to the owner
  // rather than answer empty. Modeled deterministically: the values exist
  // ONLY at their owners (written directly into the owner stores, as if
  // every replica copy were still in flight).
  Cluster c(24, 2);
  std::vector<Key> keys;
  for (uint64_t i = 1; i <= 48; ++i) {
    Key k = Mix64(i * 0x9e3779b97f4a7c15ULL);
    keys.push_back(k);
    std::string payload = "owner-only-" + std::to_string(i);
    c.dht->ExpectedOwner(k)->store().Put(
        "items", k, std::vector<uint8_t>(payload.begin(), payload.end()));
  }
  Status s = Status::Internal("unset");
  auto got = c.Fetch(keys, &s);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(got.size(), keys.size());
  for (const auto& [k, bytes] : got) {
    EXPECT_GT(bytes, 1u) << k;  // every owner-held value came back
  }
}

TEST(ReplicaMultiGetTest, HigherReplicationPeelsMore) {
  const size_t kNodes = 24, kKeys = 96;
  Cluster r2(kNodes, 2), r4(kNodes, 4);
  auto keys_a = r2.PublishKeys(kKeys);
  auto keys_b = r4.PublishKeys(kKeys);
  ASSERT_EQ(keys_a, keys_b);
  Status sa = Status::Internal("unset"), sb = sa;
  auto got_a = r2.Fetch(keys_a, &sa);
  auto got_b = r4.Fetch(keys_b, &sb);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(got_a, got_b);
  // A wider replica set lets each handoff cover more owners: fewer visits.
  EXPECT_LT(r4.dht->metrics().multi_gets, r2.dht->metrics().multi_gets);
}

}  // namespace
}  // namespace pierstack::dht
