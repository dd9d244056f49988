// Per-destination publish coalescing: PublishBatch must store exactly the
// published tuples at a fraction of the messages a per-tuple Put costs.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "dht/builder.h"
#include "pier/node.h"

namespace pierstack::pier {
namespace {

const Schema& InvSchema() {
  static const Schema* s = new Schema(
      "inverted",
      {{"keyword", ValueType::kString}, {"fileID", ValueType::kUint64}}, 0);
  return *s;
}

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  PierMetrics metrics;
  std::vector<std::unique_ptr<PierNode>> piers;

  explicit Cluster(size_t n, size_t replication = 1) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 17);
    dht::DhtOptions opts;
    opts.replication = replication;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n, opts, 555);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(std::make_unique<PierNode>(dht->node(i), &metrics));
    }
  }
};

std::vector<Tuple> WorkloadTuples() {
  std::vector<Tuple> tuples;
  // 12 keywords x 25 postings: plenty of same-destination coalescing.
  for (uint64_t f = 0; f < 300; ++f) {
    tuples.push_back(Tuple({Value("keyword" + std::to_string(f % 12)),
                            Value(f)}));
  }
  return tuples;
}

/// The (keyword -> fileID set) state WorkloadTuples publishes.
std::map<std::string, std::set<uint64_t>> PublishedState() {
  std::map<std::string, std::set<uint64_t>> out;
  for (const Tuple& t : WorkloadTuples()) {
    out[std::string(t.at(0).AsString())].insert(t.at(1).AsUint64());
  }
  return out;
}

/// What publishing WorkloadTuples with one routed Put per tuple cost on a
/// 16-node cluster, as recorded under each routing policy before per-tuple
/// publishing was removed (the standing queues are the one publish path).
struct PerTupleCost {
  uint64_t messages;
  uint64_t bytes;
  uint64_t publish_messages;
};
PerTupleCost PerTuplePublishCost(const dht::DhtOptions& o) {
  return o.routing_policy == dht::RoutingPolicyKind::kClassicChord
             ? PerTupleCost{675, 53811, 300}
             : PerTupleCost{1252, 84597, 300};
}

/// All (keyword -> fileID set) state visible via ScanLocal anywhere.
std::map<std::string, std::set<uint64_t>> VisibleState(Cluster* c) {
  std::map<std::string, std::set<uint64_t>> out;
  for (int k = 0; k < 12; ++k) {
    std::string kw = "keyword" + std::to_string(k);
    for (auto& pier : c->piers) {
      for (const Tuple& t : pier->ScanLocal(InvSchema(), Value(kw))) {
        out[kw].insert(t.at(1).AsUint64());
      }
    }
  }
  return out;
}

TEST(BatchPublishTest, CoalescingCutsMessagesKeepsPublishedState) {
  Cluster batched(16);
  batched.piers[0]->PublishBatch(InvSchema(), WorkloadTuples());
  batched.simulator.Run();

  // Exactly the published state is visible...
  auto state = VisibleState(&batched);
  EXPECT_EQ(state, PublishedState());
  ASSERT_EQ(state.size(), 12u);
  for (const auto& [kw, ids] : state) EXPECT_EQ(ids.size(), 25u) << kw;

  // ...at a fraction of the per-tuple messages and bytes (when recorded,
  // the batched run cost 51 messages, 10854 bytes and 24 publish messages
  // under the default policy).
  PerTupleCost per_tuple = PerTuplePublishCost(batched.dht->options());
  EXPECT_LT(batched.network->metrics().total.messages * 2,
            per_tuple.messages);
  EXPECT_LT(batched.network->metrics().total.bytes, per_tuple.bytes);
  EXPECT_LT(batched.metrics.publish_messages, per_tuple.publish_messages);
  EXPECT_EQ(batched.metrics.tuples_published, 300u);
  EXPECT_EQ(batched.metrics.tuples_dropped_deserialize, 0u);
}

TEST(BatchPublishTest, FlushThresholdSplitsOversizedGroups) {
  Cluster c(8);
  BatchOptions opts;
  opts.max_batch_tuples = 4;
  c.piers[0]->set_batch_options(opts);
  std::vector<Tuple> tuples;
  for (uint64_t f = 0; f < 10; ++f) {
    tuples.push_back(Tuple({Value(std::string("solo")), Value(f)}));
  }
  c.piers[0]->PublishBatch(InvSchema(), std::move(tuples));
  c.simulator.Run();
  // One destination, 10 tuples, flush threshold 4 -> 3 messages.
  EXPECT_EQ(c.metrics.publish_messages, 3u);
  std::set<uint64_t> ids;
  for (auto& pier : c.piers) {
    for (const Tuple& t :
         pier->ScanLocal(InvSchema(), Value(std::string("solo")))) {
      ids.insert(t.at(1).AsUint64());
    }
  }
  EXPECT_EQ(ids.size(), 10u);
}

TEST(BatchPublishTest, BatchedAckFiresOnceAfterAllGroups) {
  Cluster c(8);
  int acks = 0;
  Status last = Status::Internal("never fired");
  c.piers[0]->PublishBatch(InvSchema(), WorkloadTuples(), /*expiry=*/0,
                           [&](Status s) {
                             ++acks;
                             last = s;
                           });
  c.simulator.Run();
  EXPECT_EQ(acks, 1);
  EXPECT_TRUE(last.ok());
}

TEST(BatchPublishTest, ReplicationCarriesWholeBatch) {
  Cluster c(8, /*replication=*/2);
  c.piers[0]->PublishBatch(InvSchema(), WorkloadTuples());
  c.simulator.Run();
  sim::SimTime now = c.simulator.now();
  size_t total = 0;
  for (size_t i = 0; i < c.piers.size(); ++i) {
    total += c.dht->node(i)->store().TotalEntries(now);
  }
  // Owner copy + one replica for each of the 300 tuples.
  EXPECT_EQ(total, 600u);
}

TEST(BatchPublishTest, EmptyBatchIsANoOp) {
  Cluster c(4);
  bool fired = false;
  c.piers[0]->PublishBatch(InvSchema(), {}, 0, [&](Status s) {
    fired = true;
    EXPECT_TRUE(s.ok());
  });
  c.simulator.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(c.metrics.publish_messages, 0u);
  EXPECT_EQ(c.network->metrics().total.messages, 0u);
}

}  // namespace
}  // namespace pierstack::pier
