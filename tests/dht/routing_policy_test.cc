// Pluggable next-hop policy: congestion-biased finger choice, the
// greedy-fallback termination guarantee, identical answer sets across
// policies, and routing under churn (cache invalidation convergence plus
// fixed-seed determinism).
#include "dht/routing.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
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

  explicit Deployment(size_t n, DhtOptions opts = {}, uint64_t seed = 808) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), seed);
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 777);
  }
};

// --- Policy unit behavior --------------------------------------------------

TEST(NextHopPolicyTest, UnloadedNetworkMatchesClassicChoice) {
  // With zero pressure everywhere, the congestion-aware policy must pick
  // exactly what the classic greedy policy picks, for both overlays.
  for (OverlayKind kind : {OverlayKind::kChord, OverlayKind::kBamboo}) {
    DhtOptions opts;
    opts.overlay = kind;
    Deployment d(64, opts);
    auto classic = MakeNextHopPolicy(RoutingPolicyKind::kClassicChord);
    auto aware = MakeNextHopPolicy(RoutingPolicyKind::kCongestionAware);
    LoadProbe probe = [](sim::HostId) { return sim::DestinationLoad{}; };
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
      Key target = rng.Next();
      RoutingTable& table = d.dht->node(i % 64)->routing();
      NextHopChoice c = classic->Choose(table, target, probe);
      NextHopChoice a = aware->Choose(table, target, probe);
      EXPECT_EQ(a.next.host, c.next.host)
          << "overlay=" << static_cast<int>(kind) << " i=" << i;
      EXPECT_FALSE(a.detour);
    }
  }
}

TEST(NextHopPolicyTest, BackedUpClassicHopIsDetouredAround) {
  Deployment d(64);
  auto aware = MakeNextHopPolicy(RoutingPolicyKind::kCongestionAware);
  // Find a (node, target) pair with at least two progress candidates, then
  // pile synthetic pressure onto the classic pick.
  Rng rng(7);
  bool exercised = false;
  for (int i = 0; i < 500 && !exercised; ++i) {
    Key target = rng.Next();
    RoutingTable& table = d.dht->node(i % 64)->routing();
    if (table.IsOwner(target)) continue;
    NodeInfo classic = table.NextHop(target);
    if (classic.host == table.self().host) continue;
    std::vector<NodeInfo> cands;
    table.AppendProgressCandidates(target, &cands);
    bool has_alternative = false;
    for (const NodeInfo& c : cands) {
      if (c.host != classic.host) has_alternative = true;
    }
    if (!has_alternative) continue;
    exercised = true;

    LoadProbe congested = [&](sim::HostId h) {
      sim::DestinationLoad l;
      if (h == classic.host) l.in_flight_messages = 200;  // buried
      return l;
    };
    NextHopChoice choice = aware->Choose(table, target, congested);
    EXPECT_TRUE(choice.detour);
    EXPECT_NE(choice.next.host, classic.host);
    // The detour still makes strict ring progress (termination).
    EXPECT_LT(table.RouteDistance(choice.next.id, target),
              table.RouteDistance(table.self().id, target));

    // ... but when EVERY candidate is equally buried, the greedy fallback
    // keeps the classic pick (never "no route").
    LoadProbe all_congested = [&](sim::HostId) {
      sim::DestinationLoad l;
      l.in_flight_messages = 200;
      return l;
    };
    NextHopChoice fallback = aware->Choose(table, target, all_congested);
    EXPECT_TRUE(fallback.next.valid());
    EXPECT_EQ(fallback.next.host, classic.host);
  }
  EXPECT_TRUE(exercised);
}

// --- End-to-end detours ----------------------------------------------------

/// A hot-spot workload: a slow host on many routes' greedy path. Returns
/// (answers, detours, drops) so policy variants can be compared.
std::tuple<size_t, uint64_t, uint64_t> HotSpotRun(RoutingPolicyKind policy) {
  DhtOptions opts;
  opts.routing_policy = policy;
  opts.owner_location_cache = false;  // isolate the finger-choice effect
  Deployment d(32, opts);
  // Publish under many keys so routes cross the whole ring.
  std::vector<Key> keys;
  for (int i = 0; i < 60; ++i) {
    Key k = KeyForString("hotspot-key-" + std::to_string(i));
    keys.push_back(k);
    d.dht->node(0)->Put("inv", k, Bytes("v"));
  }
  d.simulator.RunFor(10 * sim::kSecond);
  // Slow one node hard: its inbound queue backs up under fan-in, and its
  // latency EWMA grows — both congestion signals.
  sim::HostId slow = d.dht->node(13)->host();
  d.network->SetProcessingDelay(slow, 50 * sim::kMillisecond);
  size_t answers = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      d.dht->node((i * 7 + 1) % 32)->Get(
          "inv", keys[i], [&](Status s, auto values) {
            if (s.ok() && values.size() == 1) ++answers;
          });
    }
    d.simulator.RunFor(10 * sim::kSecond);
  }
  return {answers, d.dht->metrics().congestion_detours,
          d.dht->metrics().routes_dropped};
}

TEST(CongestionRoutingTest, HotSpotDetoursWithIdenticalAnswers) {
  auto [classic_answers, classic_detours, classic_drops] =
      HotSpotRun(RoutingPolicyKind::kClassicChord);
  auto [aware_answers, aware_detours, aware_drops] =
      HotSpotRun(RoutingPolicyKind::kCongestionAware);
  // Identical answer sets — the policy changes paths, never results.
  EXPECT_EQ(aware_answers, classic_answers);
  EXPECT_EQ(classic_detours, 0u);
  EXPECT_GT(aware_detours, 0u);
  // Detoured routing still terminates everywhere (no hop-limit drops).
  EXPECT_EQ(classic_drops, 0u);
  EXPECT_EQ(aware_drops, 0u);
}

// --- Churn -----------------------------------------------------------------

TEST(ChurnRoutingTest, CacheInvalidatesOnCrashAndFallsBackToRing) {
  DhtOptions opts;
  opts.replication = 3;
  opts.maintenance = true;
  // This test IS about the cache: pin the policy regardless of the env
  // default (the classic CI leg turns the cache off deployment-wide).
  opts.routing_policy = RoutingPolicyKind::kCongestionAware;
  Deployment d(24, opts);
  Key k = KeyForString("churn-key");
  d.dht->node(0)->Put("inv", k, Bytes("v"));
  d.simulator.RunFor(10 * sim::kSecond);

  // Warm the reader's cache onto the current owner.
  DhtNode* owner = d.dht->ExpectedOwner(k);
  DhtNode* reader = nullptr;
  for (size_t i = 0; i < d.dht->size(); ++i) {
    if (d.dht->node(i) != owner &&
        d.dht->node(i)->store().Get("inv", k, 0).empty()) {
      reader = d.dht->node(i);
      break;
    }
  }
  ASSERT_NE(reader, nullptr);
  // An acked Put from the reader (re-storing the same value): only the
  // owner acks a Put, and its ack carries the owner hint — whereas a
  // warming Get could be answered by an in-path replica, which teaches
  // nothing.
  bool ok = false;
  reader->Put("inv", k, Bytes("v"), /*expiry=*/0,
              [&](Status s) { ok = s.ok(); });
  d.simulator.RunFor(10 * sim::kSecond);
  ASSERT_TRUE(ok);
  ASSERT_EQ(reader->route_cache().Lookup(k).host, owner->host());

  // Kill the cached owner mid-workload. The fast path's direct send is
  // REFUSED (failure detector), the entry is dropped, and the request
  // re-routes over the repaired ring to a replica-backed answer — a dead
  // address never swallows a request.
  owner->Crash();
  d.simulator.RunFor(60 * sim::kSecond);  // let stabilization repair
  uint64_t stale_before = d.dht->metrics().route_cache_stale;
  Status status = Status::Internal("callback not called");
  std::vector<std::vector<uint8_t>> got;
  reader->Get("inv", k, [&](Status s, auto values) {
    status = s;
    got = std::move(values);
  });
  d.simulator.RunFor(10 * sim::kSecond);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Bytes("v"));
  EXPECT_EQ(d.dht->metrics().route_cache_stale, stale_before + 1);
  // The dead address is purged: no later send can target it silently.
  EXPECT_FALSE(reader->route_cache().Lookup(k).valid() &&
               reader->route_cache().Lookup(k).host == owner->host());

  // The workload keeps converging: the next get still answers, and the
  // reader's cache never resurrects the dead host.
  ok = false;
  reader->Get("inv", k, [&](Status s, auto v) { ok = s.ok() && !v.empty(); });
  d.simulator.RunFor(10 * sim::kSecond);
  EXPECT_TRUE(ok);
  NodeInfo relearned = reader->route_cache().Lookup(k);
  EXPECT_TRUE(!relearned.valid() || relearned.host != owner->host());
}

/// One full churn workload; returns a counter fingerprint for the
/// determinism check.
std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t> ChurnRun() {
  DhtOptions opts;
  opts.replication = 3;
  opts.maintenance = true;
  opts.routing_policy = RoutingPolicyKind::kCongestionAware;
  Deployment d(20, opts);
  std::vector<Key> keys;
  for (int i = 0; i < 40; ++i) {
    Key k = KeyForString("det-key-" + std::to_string(i));
    keys.push_back(k);
    d.dht->node(0)->Put("inv", k, Bytes("v" + std::to_string(i)));
  }
  d.simulator.RunFor(10 * sim::kSecond);
  size_t answers = 0;
  auto workload = [&](size_t reader) {
    for (Key k : keys) {
      d.dht->node(reader)->Get("inv", k, [&](Status s, auto values) {
        if (s.ok() && !values.empty()) ++answers;
      });
    }
    d.simulator.RunFor(5 * sim::kSecond);
  };
  workload(1);
  d.dht->node(7)->Crash();
  d.simulator.RunFor(30 * sim::kSecond);
  workload(2);
  d.dht->node(11)->LeaveGracefully();
  d.simulator.RunFor(30 * sim::kSecond);
  workload(3);
  d.simulator.RunFor(10 * sim::kSecond);
  const DhtMetrics& m = d.dht->metrics();
  return {answers, m.total_hops, m.route_cache_hits, m.route_cache_stale,
          m.routes_dropped + d.network->metrics().dropped_messages};
}

TEST(ChurnRoutingTest, FixedSeedChurnWorkloadIsDeterministic) {
  // ctest must stay reproducible under churn: two identical runs produce
  // identical transport counters, cache behavior included.
  auto first = ChurnRun();
  auto second = ChurnRun();
  EXPECT_EQ(first, second);
  // And the workload actually answered things.
  EXPECT_GT(std::get<0>(first), 100u);
}

}  // namespace
}  // namespace pierstack::dht
