// dht_churn / dht_churn_sharded: a replicated Chord DHT under churn and
// latency faults, with an open loop of Gets.
//
// Set-up builds a static ring (replication 3, maintenance, the failure
// detector and anti-entropy re-sync all on) and lets maintenance settle.
// Publish phase: node 0 — the bootstrap node, which churn never crashes —
// Puts a key set at a fixed rate. Query phase: 1% of messages delayed by a
// latency spike and 1% of the ring per minute of alternating crash/restart
// churn, while node 0 Gets Zipf-popular published keys at a fixed rate,
// reissuing a Get that times out or comes back empty. Every value a Get
// returns must be the published one. Afterwards (first rep only) spikes and
// churn stop, the ring quiesces, and dht::RingOracle must find it clean.
//
// The sharded variant runs the same seeded scenario on a 2-worker
// sim::ShardedExecutor; its simulated-clock results must equal the serial
// run's exactly.
#include <functional>
#include <memory>

#include "bench_common.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "dht/builder.h"
#include "dht/churn.h"
#include "dht/ring_oracle.h"
#include "sim/fault.h"

namespace perfbench {

using namespace pierstack;

namespace {

constexpr size_t kNodes = 1000;
constexpr size_t kKeys = 2000;
constexpr double kPutsPerSimSecond = 200;
constexpr size_t kGets = 4000;
constexpr double kGetsPerSimSecond = 100;
/// Per-message fault: 1% of messages are delayed by 300 ms. Message loss
/// at 0.3-1% together with churn leaves some seeds with keys unanswerable
/// for over 8 s, or with a ring the oracle rejects after quiescing, so the
/// benchmark perturbs latency instead of dropping messages.
constexpr double kSpikeProbability = 0.01;
constexpr sim::SimTime kSpikeDelay = 300 * sim::kMillisecond;
constexpr double kChurnFractionPerMinute = 0.01;
constexpr uint32_t kGetAttempts = 8;
constexpr sim::SimTime kGetBackoff = 1 * sim::kSecond;
/// Key popularity of the Gets (Zipf exponent over the published keys).
constexpr double kGetZipfAlpha = 1.0;
constexpr sim::SimTime kSettle = 5 * sim::kSecond;
constexpr sim::SimTime kQuiesce = 30 * sim::kSecond;
/// Lower bound of the latency model; also the sharded backend's lookahead.
constexpr sim::SimTime kMinLatency = 20 * sim::kMillisecond;
constexpr sim::SimTime kMaxLatency = 120 * sim::kMillisecond;
const char* const kNamespace = "bench";

dht::Key KeyOf(uint64_t seed, size_t i) {
  return (seed * 0x9E3779B97F4A7C15ull) ^ ((i + 1) * 0xC2B2AE3D27D4EB4Full);
}

std::vector<uint8_t> ValueOf(size_t i) {
  std::vector<uint8_t> v(24);
  for (size_t b = 0; b < v.size(); ++b) {
    v[b] = static_cast<uint8_t>((i * 131 + b * 17) & 0xFF);
  }
  return v;
}

struct GetOutcome {
  bool resolved = false;
  bool ok = false;
  bool right_value = false;
  sim::SimTime due = 0;
  sim::SimTime at = 0;
};

/// Runs until every one of `outcomes` resolved or `limit` passed, in
/// simulated-time steps — a deterministic stopping point on any backend —
/// sampling `gauge` after each.
template <typename T>
void RunUntilResolved(sim::Executor* exec, const std::vector<T>& outcomes,
                      sim::SimTime limit, HostGauge* gauge) {
  auto pending = [&] {
    for (const T& o : outcomes) {
      if (!o.resolved) return true;
    }
    return false;
  };
  while (pending() && exec->now() < limit) {
    exec->RunFor(100 * sim::kMillisecond);
    gauge->Sample();
  }
}

}  // namespace

Rep RunDhtChurn(uint64_t seed, uint32_t shards, bool check_oracle,
                Tracing* tr) {
  Rep rep;
  rep.probe_exponent =
      shards > 1 ? kShardedProbeExponent : kSerialProbeExponent;
  SpanRecorder* spans = tr ? &tr->spans : nullptr;

  double wall = WallSeconds();
  std::vector<dht::Key> keys;
  {
    ScopedSpan s(spans, "setup", "setup.trace");
    for (size_t i = 0; i < kKeys; ++i) keys.push_back(KeyOf(seed, i));
  }
  rep.setup_trace_s = WallSeconds() - wall;

  wall = WallSeconds();
  std::unique_ptr<sim::Executor> exec;
  sim::FaultPlan plan(seed ^ 0xFA17u);
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  {
    ScopedSpan s(spans, "setup", "setup.build");
    exec = MakeExecutor(shards, kMinLatency, tr);
    network = std::make_unique<sim::Network>(
        exec.get(),
        std::make_unique<sim::UniformLatency>(kMinLatency, kMaxLatency),
        seed * 7 + 3);
    // Quantized load probes on every backend, so congestion-aware routing
    // reads identical snapshots serial and sharded.
    network->set_load_probe_quantum(kMinLatency);
    network->set_fault_plan(&plan);
    dht::DhtOptions opts;
    opts.overlay = dht::OverlayKind::kChord;
    opts.replication = 3;
    opts.maintenance = true;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), kNodes, opts,
                                               seed + 77);
  }
  dht::ChurnDriver churn(dht.get(), seed + 1001, &plan);
  dht::DhtNode* client = dht->node(0);
  rep.setup_build_s = WallSeconds() - wall;
  wall = WallSeconds();
  {
    ScopedSpan s(spans, "setup", "setup.settle");
    exec->RunFor(kSettle);
  }
  rep.setup_settle_s = WallSeconds() - wall;

  // --- Publish phase: Puts from node 0 at a fixed rate ---------------------
  PhaseProbe probe(network.get(), tr);
  dht::DhtMetrics dht_before = dht->metrics();
  double measured_start = WallSeconds();
  uint64_t bytes_before = network->metrics().total.bytes;
  std::vector<GetOutcome> puts(kKeys);  // `right_value` unused for puts
  {
    ScopedSpan phase(spans, "driver", "phase.publish");
    sim::SimTime start = exec->now() + sim::kMillisecond;
    sim::SimTime gap =
        static_cast<sim::SimTime>(sim::kSecond / kPutsPerSimSecond);
    for (size_t i = 0; i < kKeys; ++i) {
      sim::SimTime due = start + i * gap;
      puts[i].due = due;
      exec->ScheduleAt(client->host(), due, [&, i, pid = phase.id()]() {
        ScopedSpan call(spans, "dht", "dht.Put", pid);
        client->Put(kNamespace, keys[i], ValueOf(i), 0,
                    [&, i](Status s) {
                      puts[i].resolved = true;
                      puts[i].ok = s.ok();
                      puts[i].at = exec->now();
                    });
      });
    }
    rep.published = kKeys;
    rep.attempted += kKeys;
    wall = WallSeconds();
    RunUntilGauged(exec.get(), start + kKeys * gap, &rep.publish_gauge);
    RunUntilResolved(exec.get(), puts, exec->now() + 30 * sim::kSecond,
                     &rep.publish_gauge);
    rep.publish_wall_s = WallSeconds() - wall - rep.publish_gauge.spent_s();
  }
  rep.publish_bytes = network->metrics().total.bytes - bytes_before;
  for (const GetOutcome& p : puts) rep.failed += p.ok ? 0 : 1;

  // --- Query phase: Gets under latency spikes and churn --------------------
  std::vector<GetOutcome> gets(kGets);
  bytes_before = network->metrics().total.bytes;
  {
    ScopedSpan phase(spans, "driver", "phase.query");
    Rng rng(seed ^ 0x6E75u);
    ZipfSampler popularity(kKeys, kGetZipfAlpha);
    sim::SimTime start = exec->now() + sim::kMillisecond;
    sim::SimTime gap =
        static_cast<sim::SimTime>(sim::kSecond / kGetsPerSimSecond);
    sim::SimTime span = kGets * gap;
    plan.set_latency_spike(kSpikeProbability, kSpikeDelay);
    // Sustained churn as crash / durable-restart pairs. Fresh joins are
    // left out: with replication 3 a joiner can own keys it never receives,
    // so Gets for its arc come back empty for tens of seconds.
    std::vector<sim::ChurnEvent> timeline = sim::FaultPlan::SustainedChurn(
        start, span, kChurnFractionPerMinute * kNodes, seed + 1002);
    for (sim::ChurnEvent& e : timeline) {
      if (e.kind == sim::ChurnEvent::kJoin) e.kind = sim::ChurnEvent::kRestart;
    }
    churn.Schedule(timeline);
    // A Get that times out or finds nothing is reissued after a back-off,
    // as a client would, up to kGetAttempts times; its latency still counts
    // from the original due time. Churn can briefly hand a key's arc to a
    // node that has not received the key yet.
    std::function<void(size_t, size_t, uint32_t)> issue =
        [&](size_t g, size_t k, uint32_t attempt) {
          client->Get(
              kNamespace, keys[k],
              [&, g, k, attempt](Status s,
                                 std::vector<std::vector<uint8_t>> v) {
                if ((!s.ok() || v.empty()) && attempt + 1 < kGetAttempts) {
                  exec->ScheduleAfter(client->host(), kGetBackoff,
                                      [&, g, k, attempt]() {
                                        issue(g, k, attempt + 1);
                                      });
                  return;
                }
                GetOutcome& o = gets[g];
                o.resolved = true;
                o.at = exec->now();
                o.ok = s.ok() && !v.empty();
                std::vector<uint8_t> want = ValueOf(k);
                o.right_value = true;
                for (const auto& value : v) {
                  o.right_value = o.right_value && value == want;
                }
              });
        };
    for (size_t g = 0; g < kGets; ++g) {
      size_t k = popularity.Sample(&rng);
      sim::SimTime due = start + g * gap;
      gets[g].due = due;
      exec->ScheduleAt(client->host(), due, [&, g, k, pid = phase.id()]() {
        ScopedSpan call(spans, "dht", "dht.Get", pid);
        issue(g, k, 0);
      });
    }
    rep.queries = kGets;
    rep.attempted += kGets;
    wall = WallSeconds();
    RunUntilGauged(exec.get(), start + span, &rep.query_gauge);
    RunUntilResolved(exec.get(), gets, exec->now() + 30 * sim::kSecond,
                     &rep.query_gauge);
    rep.query_wall_s = WallSeconds() - wall - rep.query_gauge.spent_s();
    plan.set_latency_spike(0, 0);
  }
  rep.query_bytes = network->metrics().total.bytes - bytes_before;
  probe.Finish(WallSeconds() - measured_start -
                   rep.publish_gauge.spent_s() - rep.query_gauge.spent_s(),
               &rep);
  DhtLayers(dht_before, dht->metrics(), &rep);
  rep.layer["dht.get_call_us"] = SpanMeanUs(tr, "dht.Get");

  uint64_t answered = 0;
  for (size_t g = 0; g < kGets; ++g) {
    const GetOutcome& o = gets[g];
    if (!o.resolved || !o.ok) {
      ++rep.failed;
      continue;
    }
    if (!o.right_value) {
      ++rep.wrong;
      if (rep.first_error.empty()) {
        rep.first_error = "dht_churn: Get " + std::to_string(g) +
                          " did not return the published value";
      }
      continue;
    }
    ++answered;
    rep.latency_ms.push_back(static_cast<double>(o.at - o.due) / 1e3);
  }
  rep.failed += rep.wrong;
  rep.recall_num = static_cast<double>(answered);
  rep.recall_den = static_cast<double>(kGets);

  const sim::NetworkMetrics& net = network->metrics();
  Fp(&rep, exec->events_executed());
  Fp(&rep, exec->now());
  Fp(&rep, net.total.messages);
  Fp(&rep, net.total.bytes);
  Fp(&rep, net.dropped_messages);
  Fp(&rep, churn.stats().crashes);
  Fp(&rep, churn.stats().restarts);
  Fp(&rep, answered);
  FpDoubles(&rep, rep.latency_ms);

  if (check_oracle) {
    // Quiesce: no spikes, no churn; then every invariant must hold.
    exec->RunFor(kQuiesce);
    dht::RingOracle oracle(dht.get());
    for (dht::Key k : keys) oracle.TrackKey(kNamespace, k);
    dht::RingOracleReport report = oracle.Check(exec->now());
    rep.oracle_checked = true;
    rep.oracle_clean = report.clean();
    rep.oracle_detail = report.detail;
  }
  return rep;
}

}  // namespace perfbench
