// Mid-query owner crash: an in-flight MultiGet and an in-flight
// ExecutePlan must both resolve within their deadlines when the node
// answering them dies after the request was sent — the retry-with-backoff
// and replica paths turn an owner crash into latency, never into a hung
// callback. Parametrized over both routing policies so the guarantee holds
// on the legacy classic path and the congestion-aware default alike.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "dht/builder.h"
#include "pier/node.h"
#include "pier/plan.h"

namespace pierstack::pier {
namespace {

const Schema& InvSchema() {
  static const Schema* s = new Schema(
      "inverted",
      {{"keyword", ValueType::kString}, {"fileID", ValueType::kUint64}}, 0);
  return *s;
}

const Schema& ItemSchema() {
  static const Schema* s = new Schema("item",
                                      {{"fileID", ValueType::kUint64},
                                       {"name", ValueType::kString}},
                                      0);
  return *s;
}

/// Mirrors the engine's (ns, key value) → ring key mapping (pier/node.cc).
dht::Key RingKeyFor(const std::string& ns, const Value& key) {
  return HashCombine(Fnv1a64(ns), key.Hash());
}

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  PierMetrics metrics;
  std::vector<std::unique_ptr<PierNode>> piers;

  Cluster(size_t n, dht::RoutingPolicyKind policy) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 31);
    dht::DhtOptions opts;
    opts.routing_policy = policy;
    opts.replication = 3;
    opts.maintenance = true;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n, opts, 777);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(std::make_unique<PierNode>(dht->node(i), &metrics));
    }
  }

  /// Index of a pier/dht node that is NOT `excluded` (to survive a crash).
  size_t SurvivorIndex(dht::DhtNode* excluded) {
    for (size_t i = 0; i < dht->size(); ++i) {
      if (dht->node(i) != excluded) return i;
    }
    ADD_FAILURE() << "no survivor candidate";
    return 0;
  }
};

class CrashQueryTest
    : public ::testing::TestWithParam<dht::RoutingPolicyKind> {};

TEST_P(CrashQueryTest, MultiGetResolvesAcrossMidFlightOwnerCrash) {
  Cluster c(16, GetParam());
  const std::string ns = "mg";
  std::vector<dht::Key> keys;
  for (size_t i = 0; i < 12; ++i) {
    keys.push_back((i + 1) * 0x9E3779B97F4A7C15ull);
    c.dht->node(0)->Put(ns, keys.back(), {uint8_t(i), 0xAB}, 0, nullptr);
  }
  c.simulator.RunFor(10 * sim::kSecond);

  // The chained scatter starts at the first key's owner: that is the node
  // whose crash strands the whole in-flight request.
  dht::DhtNode* first_owner = c.dht->ExpectedOwner(keys[0]);
  ASSERT_NE(first_owner, nullptr);
  dht::DhtNode* requester = c.dht->node(c.SurvivorIndex(first_owner));

  bool fired = false;
  Status status = Status::Internal("unset");
  size_t answered = 0;
  sim::SimTime issued_at = c.simulator.now();
  sim::SimTime fired_at = 0;
  requester->MultiGet(ns, keys,
                      [&](Status s, std::vector<dht::DhtNode::MultiGetItem> items) {
                        fired = true;
                        fired_at = c.simulator.now();
                        status = s;
                        answered = items.size();
                      });
  // Crash while the request is on the wire (latency is 5ms).
  c.simulator.ScheduleAfter(sim::kDriverHost, 2 * sim::kMillisecond,
                            [&] { first_owner->Crash(); });

  sim::SimTime deadline = dht::kGetTimeout;
  c.simulator.RunFor(deadline + 5 * sim::kSecond);

  ASSERT_TRUE(fired) << "MultiGet hung across the owner crash";
  EXPECT_LE(fired_at - issued_at, deadline + sim::kSecond);
  // Replication 3 + attempt retries: the re-scattered request reaches the
  // surviving replicas and completes with every key answered.
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(answered, keys.size());
}

TEST_P(CrashQueryTest, ExecutePlanResolvesAcrossMidFlightOwnerCrash) {
  Cluster c(16, GetParam());
  std::vector<Tuple> inv, items;
  for (uint64_t f = 0; f < 60; ++f) {
    inv.push_back(Tuple({Value("madonna"), Value(f)}));
    items.push_back(Tuple({Value(f), Value("file " + std::to_string(f))}));
  }
  c.piers[0]->PublishBatch(InvSchema(), std::move(inv));
  c.piers[0]->PublishBatch(ItemSchema(), std::move(items));
  c.piers[0]->FlushPublishQueues();
  c.simulator.RunFor(10 * sim::kSecond);

  // The stage executes at the scan key's owner; kill exactly that node
  // after the stage message left the query node.
  dht::DhtNode* scan_owner =
      c.dht->ExpectedOwner(RingKeyFor("inverted", Value("madonna")));
  ASSERT_NE(scan_owner, nullptr);
  size_t query_idx = c.SurvivorIndex(scan_owner);

  QueryPlan plan = PlanBuilder()
                       .IndexScan("inverted", Value("madonna"))
                       .FetchJoin("item")
                       .Build();

  bool fired = false;
  sim::SimTime issued_at = c.simulator.now();
  sim::SimTime fired_at = 0;
  constexpr sim::SimTime kPlanTimeout = 10 * sim::kSecond;
  c.piers[query_idx]->ExecutePlan(
      std::move(plan),
      [&](Status, std::vector<Tuple>, const Completeness&) {
        fired = true;
        fired_at = c.simulator.now();
      },
      kPlanTimeout);
  c.simulator.ScheduleAfter(sim::kDriverHost, 2 * sim::kMillisecond,
                            [&] { scan_owner->Crash(); });

  c.simulator.RunFor(kPlanTimeout + 10 * sim::kSecond);

  // The guarantee under test is bounded completion: the callback fires by
  // the plan deadline (success via replicas/retries, or a clean timeout) —
  // never a hang, under either routing policy.
  ASSERT_TRUE(fired) << "ExecutePlan hung across the owner crash";
  EXPECT_LE(fired_at - issued_at, kPlanTimeout + sim::kSecond);
}

INSTANTIATE_TEST_SUITE_P(
    BothPolicies, CrashQueryTest,
    ::testing::Values(dht::RoutingPolicyKind::kClassicChord,
                      dht::RoutingPolicyKind::kCongestionAware),
    [](const ::testing::TestParamInfo<dht::RoutingPolicyKind>& info) {
      return info.param == dht::RoutingPolicyKind::kClassicChord
                 ? "ClassicChord"
                 : "CongestionAware";
    });

}  // namespace
}  // namespace pierstack::pier
