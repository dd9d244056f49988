// Owner-coalesced multi-key fetch: FetchMany must return exactly the
// published tuples while issuing exactly one routed get message per
// distinct owner.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "dht/builder.h"
#include "pier/node.h"

namespace pierstack::pier {
namespace {

const Schema& ItemLikeSchema() {
  static const Schema* s = new Schema(
      "items",
      {{"fileID", ValueType::kUint64}, {"name", ValueType::kString}}, 0);
  return *s;
}

dht::Key ItemKey(uint64_t id) {
  return HashCombine(Fnv1a64("items"), Value(id).Hash());
}

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  PierMetrics metrics;
  std::vector<std::unique_ptr<PierNode>> piers;

  explicit Cluster(size_t n) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 17);
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n,
                                               dht::DhtOptions{}, 555);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(std::make_unique<PierNode>(dht->node(i), &metrics));
    }
  }

  /// Publishes `count` item tuples and returns their ids.
  std::vector<uint64_t> PublishItems(size_t count) {
    std::vector<uint64_t> ids;
    std::vector<Tuple> tuples;
    for (uint64_t id = 1; id <= count; ++id) {
      ids.push_back(id);
      tuples.push_back(Tuple({Value(id), Value("item " + std::to_string(id))}));
    }
    piers[0]->PublishBatch(ItemLikeSchema(), std::move(tuples));
    piers[0]->FlushPublishQueues();
    simulator.Run();
    return ids;
  }

  /// Distinct owner hosts across the item keys of `ids`.
  size_t DistinctOwners(const std::vector<uint64_t>& ids) {
    std::set<sim::HostId> owners;
    for (uint64_t id : ids) {
      owners.insert(dht->ExpectedOwner(ItemKey(id))->host());
    }
    return owners.size();
  }
};

TEST(FetchManyTest, ReturnsAllRequestedTuples) {
  Cluster c(16);
  auto ids = c.PublishItems(40);
  std::set<uint64_t> got;
  bool done = false;
  std::vector<Value> keys;
  for (uint64_t id : ids) keys.emplace_back(Value(id));
  c.piers[3]->FetchMany(ItemLikeSchema(), keys,
                        [&](Status s, std::vector<Tuple> tuples,
                            const Completeness&) {
                          done = true;
                          ASSERT_TRUE(s.ok()) << s.ToString();
                          for (const Tuple& t : tuples) {
                            got.insert(t.at(0).AsUint64());
                          }
                        });
  c.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(got, std::set<uint64_t>(ids.begin(), ids.end()));
  EXPECT_EQ(c.metrics.tuples_dropped_deserialize, 0u);
}

TEST(FetchManyTest, ExactlyOneRoutedGetPerOwner) {
  Cluster c(24);
  auto ids = c.PublishItems(60);
  size_t k = c.DistinctOwners(ids);
  ASSERT_GT(k, 1u);  // the workload must actually span owners
  ASSERT_LT(k, ids.size());

  uint64_t before = c.dht->metrics().multi_gets;
  std::vector<Value> keys;
  for (uint64_t id : ids) keys.emplace_back(Value(id));
  size_t fetched = 0;
  c.piers[5]->FetchMany(ItemLikeSchema(), keys,
                        [&](Status s, std::vector<Tuple> tuples,
                            const Completeness&) {
                          ASSERT_TRUE(s.ok());
                          fetched = tuples.size();
                        });
  c.simulator.Run();
  EXPECT_EQ(fetched, ids.size());
  // N results over K owners: exactly K routed get messages.
  EXPECT_EQ(c.dht->metrics().multi_gets - before, k);
}

/// Messages 48 one-key-per-round-trip fetches of the items below cost on a
/// 16-node cluster, as recorded under each routing policy before per-key
/// fetching was removed (the coalesced fetch then cost 26 and 27).
uint64_t PerKeyFetchMessages(const dht::DhtOptions& o) {
  return o.routing_policy == dht::RoutingPolicyKind::kClassicChord ? 153
                                                                   : 174;
}

TEST(FetchManyTest, HalvesMessagesVersusPerKeyFetch) {
  Cluster c(16);
  auto ids = c.PublishItems(48);

  uint64_t base = c.network->metrics().total.messages;
  std::vector<Value> keys;
  for (uint64_t id : ids) keys.emplace_back(Value(id));
  std::set<uint64_t> got;
  size_t fetched = 0;
  c.piers[2]->FetchMany(ItemLikeSchema(), keys,
                        [&](Status s, std::vector<Tuple> tuples,
                            const Completeness&) {
                          ASSERT_TRUE(s.ok());
                          fetched = tuples.size();
                          for (const Tuple& t : tuples) {
                            got.insert(t.at(0).AsUint64());
                          }
                        });
  c.simulator.Run();
  uint64_t msgs = c.network->metrics().total.messages - base;

  // Exactly the published set at under half the per-key messages.
  EXPECT_EQ(got, std::set<uint64_t>(ids.begin(), ids.end()));
  EXPECT_EQ(fetched, ids.size());
  EXPECT_LT(msgs * 2, PerKeyFetchMessages(c.dht->options()));
}

TEST(FetchManyTest, DuplicateKeysCollapse) {
  Cluster c(8);
  c.PublishItems(4);
  uint64_t before = c.dht->metrics().multi_get_keys;
  std::vector<Value> keys{Value(uint64_t{1}), Value(uint64_t{1}),
                          Value(uint64_t{2}), Value(uint64_t{2})};
  std::multiset<uint64_t> got;
  c.piers[1]->FetchMany(ItemLikeSchema(), keys,
                        [&](Status s, std::vector<Tuple> tuples,
                            const Completeness&) {
                          ASSERT_TRUE(s.ok());
                          for (const Tuple& t : tuples) {
                            got.insert(t.at(0).AsUint64());
                          }
                        });
  c.simulator.Run();
  // Each stored tuple returned once despite duplicated request keys.
  EXPECT_EQ(got, (std::multiset<uint64_t>{1, 2}));
  EXPECT_EQ(c.dht->metrics().multi_get_keys - before, 2u);
}

TEST(FetchManyTest, OnlyRequestedIdsReturned) {
  Cluster c(8);
  c.PublishItems(10);
  std::set<uint64_t> got;
  c.piers[4]->FetchMany(ItemLikeSchema(),
                        {Value(uint64_t{3}), Value(uint64_t{7})},
                        [&](Status s, std::vector<Tuple> tuples,
                            const Completeness&) {
                          ASSERT_TRUE(s.ok());
                          for (const Tuple& t : tuples) {
                            got.insert(t.at(0).AsUint64());
                          }
                        });
  c.simulator.Run();
  EXPECT_EQ(got, (std::set<uint64_t>{3, 7}));
}

TEST(FetchManyTest, EmptyKeySetCompletesImmediately) {
  Cluster c(4);
  bool done = false;
  c.piers[0]->FetchMany(ItemLikeSchema(), {},
                        [&](Status s, std::vector<Tuple> tuples,
                            const Completeness&) {
                          done = true;
                          EXPECT_TRUE(s.ok());
                          EXPECT_TRUE(tuples.empty());
                        });
  EXPECT_TRUE(done);
  EXPECT_EQ(c.network->metrics().total.messages, 0u);
}

TEST(FetchManyTest, MissingKeysStillComplete) {
  Cluster c(8);
  c.PublishItems(2);
  std::set<uint64_t> got;
  bool done = false;
  c.piers[1]->FetchMany(
      ItemLikeSchema(),
      {Value(uint64_t{1}), Value(uint64_t{999}), Value(uint64_t{1000})},
      [&](Status s, std::vector<Tuple> tuples, const Completeness&) {
        done = true;
        ASSERT_TRUE(s.ok());
        for (const Tuple& t : tuples) got.insert(t.at(0).AsUint64());
      });
  c.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(got, (std::set<uint64_t>{1}));
}

}  // namespace
}  // namespace pierstack::pier
