// Fault-tolerant query plane: stage failover recovers a crashed stage
// owner's answers from its replica-holding successor, hedged fetches beat a
// fail-slow owner without changing the answer, admission control sheds
// over-budget plans as explicit labeled refusals, and every partial result
// carries a Completeness record matched one-for-one by the
// pier.partial_results counter — a partial answer is never silent.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "common/stats.h"
#include "dht/builder.h"
#include "pier/node.h"
#include "pier/plan.h"
#include "sim/fault.h"

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
  sim::FaultPlan faults{99};
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  PierMetrics metrics;
  std::vector<std::unique_ptr<PierNode>> piers;

  Cluster(size_t n, const BatchOptions& opts) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 31);
    network->set_fault_plan(&faults);
    dht::DhtOptions dopts;
    dopts.replication = 3;
    dopts.maintenance = true;
    // The scenarios crash or slow the owner a query talks to directly: a
    // stage message lost in flight to its owner, a fetch leg whose probed
    // next hop IS the straggling owner. The owner-direct path needs the
    // location cache, so pin the default policy; under the classic leg's
    // ring walk an intermediate hop reroutes around the crash before the
    // query plane ever sees it.
    dopts.routing_policy = dht::RoutingPolicyKind::kCongestionAware;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n, dopts, 777);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(std::make_unique<PierNode>(dht->node(i), &metrics));
      piers.back()->set_batch_options(opts);
    }
  }

  void PublishPostings(const std::string& kw, uint64_t lo, uint64_t hi) {
    std::vector<Tuple> tuples;
    for (uint64_t f = lo; f < hi; ++f) {
      tuples.push_back(Tuple({Value(kw), Value(f)}));
    }
    piers[0]->PublishBatch(InvSchema(), std::move(tuples));
    piers[0]->FlushPublishQueues();
    simulator.RunFor(10 * sim::kSecond);
  }

  dht::DhtNode* OwnerOf(const std::string& ns, const Value& key) {
    return dht->ExpectedOwner(RingKeyFor(ns, key));
  }

  /// Index of a pier whose node is NOT `excluded` (to survive a crash).
  size_t SurvivorIndex(dht::DhtNode* excluded) {
    for (size_t i = 0; i < dht->size(); ++i) {
      if (dht->node(i) != excluded) return i;
    }
    ADD_FAILURE() << "no survivor candidate";
    return 0;
  }
};

QueryPlan OneStage(const std::string& kw) {
  return PlanBuilder().IndexScan("inverted", Value(kw)).Build();
}

/// One observed query resolution: everything the callback delivered.
struct Outcome {
  bool fired = false;
  Status status = Status::Internal("unset");
  std::set<uint64_t> ids;
  Completeness completeness;
  sim::SimTime fired_at = 0;
};

PierNode::PlanCallback PlanCallbackOf(Cluster* c, Outcome* out) {
  return [c, out](Status s, std::vector<Tuple> rows,
                  const Completeness& completeness) {
    out->fired = true;
    out->fired_at = c->simulator.now();
    out->status = std::move(s);
    out->completeness = completeness;
    for (const Tuple& r : rows) out->ids.insert(r.at(0).AsUint64());
  };
}

TEST(RobustnessTest, FailoverRecoversFullAnswerAfterStage0OwnerCrash) {
  BatchOptions opts;  // failover budget 2, everything else default
  Cluster c(16, opts);
  c.PublishPostings("alpha", 0, 80);

  dht::DhtNode* owner = c.OwnerOf("inverted", Value("alpha"));
  ASSERT_NE(owner, nullptr);
  size_t origin = c.SurvivorIndex(owner);

  Outcome got;
  c.piers[origin]->ExecutePlan(OneStage("alpha"), PlanCallbackOf(&c, &got),
                               /*timeout=*/20 * sim::kSecond);
  // Crash the stage-0 owner while the stage message is on the wire: the
  // dispatched query loses its entire weight and only the no-progress
  // watchdog can bring it back.
  c.simulator.ScheduleAfter(sim::kDriverHost, 2 * sim::kMillisecond,
                            [&] { owner->Crash(); });
  c.simulator.RunFor(30 * sim::kSecond);

  ASSERT_TRUE(got.fired) << "join hung across the owner crash";
  // The re-dispatch re-resolved the ring and landed on the replica-holding
  // successor: the full answer, well inside the deadline.
  EXPECT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.ids.size(), 80u);
  EXPECT_GE(c.metrics.stage_failovers, 1u);
  EXPECT_TRUE(got.completeness.exact);
  EXPECT_GE(got.completeness.failovers, 1u);
  // Recovered in full — nothing partial to account for.
  EXPECT_EQ(c.metrics.partial_results, 0u);
}

TEST(RobustnessTest, FailoverDisabledTimesOutWithLabeledPartial) {
  BatchOptions opts;
  opts.stage_failover_budget = 0;  // the legacy sit-out-the-deadline path
  Cluster c(16, opts);
  c.PublishPostings("alpha", 0, 40);

  dht::DhtNode* owner = c.OwnerOf("inverted", Value("alpha"));
  ASSERT_NE(owner, nullptr);
  size_t origin = c.SurvivorIndex(owner);

  Outcome got;
  c.piers[origin]->ExecutePlan(OneStage("alpha"), PlanCallbackOf(&c, &got),
                               /*timeout=*/6 * sim::kSecond);
  c.simulator.ScheduleAfter(sim::kDriverHost, 2 * sim::kMillisecond,
                            [&] { owner->Crash(); });
  c.simulator.RunFor(20 * sim::kSecond);

  ASSERT_TRUE(got.fired);
  EXPECT_FALSE(got.status.ok());
  EXPECT_TRUE(got.ids.empty());
  // The shortfall is labeled, not silent: non-exact, zero coverage, one
  // failed stage, and exactly one counted partial for one observed one.
  EXPECT_FALSE(got.completeness.exact);
  EXPECT_LT(got.completeness.coverage_fraction, 1.0);
  EXPECT_EQ(got.completeness.stages_failed, 1u);
  EXPECT_EQ(got.completeness.failovers, 0u);
  EXPECT_EQ(c.metrics.stage_failovers, 0u);
  EXPECT_EQ(c.metrics.partial_results, 1u);
}

TEST(RobustnessTest, HedgedFetchBeatsFailSlowOwnerWithIdenticalAnswers) {
  auto run = [](bool hedged, std::set<uint64_t>* ids, Completeness* comp,
                uint64_t* hedges_sent, uint64_t* hedges_won) {
    BatchOptions opts;
    opts.hedged_fetches = hedged;
    Cluster c(16, opts);
    std::vector<Tuple> items;
    for (uint64_t f = 1; f <= 120; ++f) {
      items.push_back(Tuple({Value(f), Value("file " + std::to_string(f))}));
    }
    c.piers[0]->PublishBatch(ItemSchema(), std::move(items));
    c.piers[0]->FlushPublishQueues();
    c.simulator.RunFor(10 * sim::kSecond);

    // Fetch ONLY keys the straggler owns: every ring route to them ends at
    // its predecessor, which is exactly where the hedge's backup diversion
    // runs — the primary must pay the straggle, the hedge never does. Make
    // the owner a mild straggler first and run one warm-up round so the
    // latency EWMA toward it reads the degradation.
    sim::HostId slow = c.OwnerOf("item", Value(uint64_t{1}))->host();
    std::vector<uint64_t> slow_keys;
    for (uint64_t f = 1; f <= 120; ++f) {
      if (c.OwnerOf("item", Value(f))->host() == slow) {
        slow_keys.push_back(f);
      }
    }
    EXPECT_GE(slow_keys.size(), 3u);
    c.network->SetProcessingDelay(slow, 100 * sim::kMillisecond);
    // Latency of one fetch round = callback time minus issue time (the
    // simulator keeps running maintenance past the answer).
    auto fetch = [&](std::set<uint64_t>* got, Completeness* cres) {
      std::vector<Value> keys;
      for (uint64_t f : slow_keys) keys.emplace_back(Value(f));
      bool done = false;
      sim::SimTime issued = c.simulator.now();
      sim::SimTime answered = issued;
      size_t idx = c.SurvivorIndex(c.dht->node(0));
      // Any pier not colocated with the slow host works as the origin.
      for (size_t i = 0; i < c.dht->size(); ++i) {
        if (c.dht->node(i)->host() != slow) {
          idx = i;
          break;
        }
      }
      c.piers[idx]->FetchMany(
          ItemSchema(), std::move(keys),
          PierNode::FetchCallback(
              [&](Status s, std::vector<Tuple> tuples,
                  const Completeness& cc) {
                done = true;
                answered = c.simulator.now();
                if (cres != nullptr) *cres = cc;
                (void)s;
                if (got != nullptr) {
                  for (const Tuple& t : tuples) {
                    got->insert(t.at(0).AsUint64());
                  }
                }
              }));
      c.simulator.RunFor(20 * sim::kSecond);
      EXPECT_TRUE(done);
      return answered - issued;
    };
    fetch(nullptr, nullptr);  // warm round: EWMA now reads ~105ms

    // The mild straggler becomes a hard one: +2s per delivery, far past
    // the hedge delay (3 × observed ≈ 315ms), so the backup answers first.
    c.faults.AddFailSlow(slow, c.simulator.now(), 5 * sim::kMinute,
                         2 * sim::kSecond);
    sim::SimTime latency = fetch(ids, comp);
    *hedges_sent = c.metrics.hedges_sent;
    *hedges_won = c.metrics.hedges_won;
    return latency;
  };

  std::set<uint64_t> base_ids, hedged_ids;
  Completeness base_comp, hedged_comp;
  uint64_t base_sent = 0, base_won = 0, sent = 0, won = 0;
  sim::SimTime base_t = run(false, &base_ids, &base_comp, &base_sent,
                            &base_won);
  sim::SimTime hedged_t = run(true, &hedged_ids, &hedged_comp, &sent, &won);

  // Identical answers, every key resolved, and the hedge actually raced.
  EXPECT_EQ(hedged_ids, base_ids);
  EXPECT_GE(hedged_ids.size(), 3u);
  EXPECT_EQ(base_sent, 0u);
  EXPECT_EQ(base_won, 0u);
  EXPECT_GE(sent, 1u);
  EXPECT_GE(won, 1u);
  EXPECT_GE(hedged_comp.hedges_won, 1u);
  EXPECT_TRUE(hedged_comp.exact);
  // The backup replica answered while the primary sat in the straggler's
  // queue: a decisive latency win, not a marginal one.
  EXPECT_LT(hedged_t * 2, base_t);
}

TEST(RobustnessTest, AdmissionControlShedsUnderPressureAndAdmitsWhenIdle) {
  BatchOptions opts;
  opts.admission_base_entries = 64;
  opts.admission_min_entries = 8;
  opts.admission_inflight_floor = 2;
  opts.admission_retry_after = 100 * sim::kMillisecond;
  Cluster c(16, opts);
  c.PublishPostings("alpha", 0, 100);

  dht::DhtNode* owner = c.OwnerOf("inverted", Value("alpha"));
  ASSERT_NE(owner, nullptr);
  size_t origin = c.SurvivorIndex(owner);

  // Idle: the posting list dwarfs the pressure budget, but an idle owner
  // admits everything.
  Outcome idle;
  c.piers[origin]->ExecutePlan(OneStage("alpha"), PlanCallbackOf(&c, &idle),
                               /*timeout=*/20 * sim::kSecond);
  c.simulator.RunFor(25 * sim::kSecond);
  ASSERT_TRUE(idle.fired);
  EXPECT_TRUE(idle.status.ok()) << idle.status.ToString();
  EXPECT_EQ(idle.ids.size(), 100u);
  EXPECT_EQ(c.metrics.plans_shed, 0u);

  // Pressure: a slow owner with a standing message stream stacked against
  // it. Every admission probe now sees dozens of in-flight messages.
  c.network->SetProcessingDelay(owner->host(), 300 * sim::kMillisecond);
  dht::Key pressure_key = RingKeyFor("inverted", Value("alpha"));
  size_t feeder = c.SurvivorIndex(owner);
  for (size_t i = 0; i < 4000; ++i) {
    c.simulator.ScheduleAfter(
        sim::kDriverHost, i * 10 * sim::kMillisecond,
        [&c, feeder, pressure_key] {
          c.dht->node(feeder)->Put("pressure", pressure_key, {0xA, 0xB}, 0,
                                   nullptr);
        });
  }
  c.simulator.RunFor(2 * sim::kSecond);  // reach steady-state pressure

  Outcome shed;
  c.piers[origin]->ExecutePlan(OneStage("alpha"), PlanCallbackOf(&c, &shed),
                               /*timeout=*/30 * sim::kSecond);
  c.simulator.RunFor(40 * sim::kSecond);

  ASSERT_TRUE(shed.fired);
  // Refused at the owner, deferred per the retry-after hint until the
  // defer budget ran out, then resolved as an explicit labeled shed.
  EXPECT_FALSE(shed.status.ok());
  EXPECT_TRUE(shed.ids.empty());
  EXPECT_TRUE(shed.completeness.shed);
  EXPECT_FALSE(shed.completeness.exact);
  EXPECT_GT(shed.completeness.retry_after, 0u);
  EXPECT_EQ(shed.completeness.deferrals, kAdmissionDeferBudget);
  EXPECT_EQ(c.metrics.plans_shed, kAdmissionDeferBudget + 1);
  EXPECT_EQ(c.metrics.plans_deferred, kAdmissionDeferBudget);
  // A shed is a labeled partial: counted exactly once.
  EXPECT_EQ(c.metrics.partial_results, 1u);
  // The shed query never failed a stage — it never started one.
  EXPECT_EQ(shed.completeness.stages_failed, 0u);
}

TEST(RobustnessTest, PartialResultsCounterMatchesObservedPartials) {
  BatchOptions opts;
  opts.stage_failover_budget = 0;  // make the crash query resolve partial
  Cluster c(16, opts);

  dht::DhtNode* alpha_owner = c.OwnerOf("inverted", Value("alpha"));
  ASSERT_NE(alpha_owner, nullptr);
  // The scenario needs a healthy witness query: a keyword whose owner is a
  // different node than alpha's (which is about to crash).
  std::string witness;
  for (const char* kw : {"beta", "gamma", "delta", "epsilon", "zeta",
                         "theta", "kappa"}) {
    if (c.OwnerOf("inverted", Value(kw)) != alpha_owner) {
      witness = kw;
      break;
    }
  }
  ASSERT_FALSE(witness.empty()) << "no keyword with a distinct owner";
  c.PublishPostings("alpha", 0, 30);
  c.PublishPostings(witness, 0, 30);

  size_t origin = c.SurvivorIndex(alpha_owner);
  Outcome broken, healthy1, healthy2;
  c.piers[origin]->ExecutePlan(OneStage("alpha"), PlanCallbackOf(&c, &broken),
                               /*timeout=*/5 * sim::kSecond);
  c.piers[origin]->ExecutePlan(OneStage(witness),
                               PlanCallbackOf(&c, &healthy1),
                               /*timeout=*/5 * sim::kSecond);
  // Crash alpha's owner while the stage dispatch is on the wire: with the
  // failover budget at zero, that query can only time out partial. The
  // witness owner is untouched.
  c.simulator.ScheduleAfter(sim::kDriverHost, 2 * sim::kMillisecond,
                            [&] { alpha_owner->Crash(); });
  c.simulator.RunFor(10 * sim::kSecond);
  c.piers[origin]->ExecutePlan(OneStage(witness),
                               PlanCallbackOf(&c, &healthy2),
                               /*timeout=*/5 * sim::kSecond);
  c.simulator.RunFor(10 * sim::kSecond);

  ASSERT_TRUE(broken.fired);
  ASSERT_TRUE(healthy1.fired);
  ASSERT_TRUE(healthy2.fired);
  uint64_t observed = 0;
  for (const Outcome* o : {&broken, &healthy1, &healthy2}) {
    if (!o->completeness.exact) ++observed;
  }
  EXPECT_EQ(observed, 1u);  // only the crashed-owner query fell short
  EXPECT_TRUE(healthy1.completeness.exact);
  EXPECT_EQ(healthy1.ids.size(), 30u);
  EXPECT_EQ(c.metrics.partial_results, observed);

  // The robustness counters travel through the standard export surface.
  CounterSet out;
  ExportTransportCounters(c.metrics, &out);
  EXPECT_EQ(out.Value("pier.partial_results"), observed);
  EXPECT_EQ(out.Value("pier.stage_failovers"), 0u);
  EXPECT_EQ(out.Value("pier.plans_shed"), 0u);
  EXPECT_EQ(out.Value("pier.plans_deferred"), 0u);
  EXPECT_EQ(out.Value("pier.hedges_sent"), 0u);
  EXPECT_EQ(out.Value("pier.hedges_won"), 0u);
}

}  // namespace
}  // namespace pierstack::pier
