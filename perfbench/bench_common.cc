#include "bench_common.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>

#include "pier/tuple_batch.h"
#include "sim/shard.h"

namespace perfbench {

using namespace pierstack;

std::unique_ptr<sim::Executor> MakeExecutor(uint32_t shards,
                                            sim::SimTime lookahead,
                                            Tracing* tr) {
  std::unique_ptr<sim::Executor> exec;
  if (shards > 1) {
    exec = std::make_unique<sim::ShardedExecutor>(
        sim::ShardedExecutor::Options{shards, lookahead});
  } else {
    exec = std::make_unique<sim::SerialExecutor>();
  }
  if (tr == nullptr) return exec;
  auto timed = std::make_unique<TimingExecutor>(std::move(exec));
  tr->exec = timed.get();
  return timed;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr int kProbeRounds = 8;
constexpr size_t kGaugeSliceEvents = 2000;
constexpr sim::SimTime kGaugeSliceTime = 50 * sim::kMillisecond;

volatile uint64_t probe_sink;

/// The probe: fills a 64-entry binary heap from a 512-byte table and drains
/// it, `rounds` times. Its data fit in a few cache lines.
uint64_t ProbeKernel(int rounds) {
  static const std::array<uint64_t, 64> table = [] {
    std::array<uint64_t, 64> t{};
    for (size_t i = 0; i < t.size(); ++i) t[i] = i * 0x9E3779B97F4A7C15ull;
    return t;
  }();
  uint64_t h = 1;
  uint64_t heap[64];
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 64; ++i) {
      h = h * 6364136223846793005ull + 1442695040888963407ull;
      heap[i] = table[h >> 58] ^ h;
      std::push_heap(heap, heap + i + 1);
    }
    for (int i = 64; i > 0; --i) {
      std::pop_heap(heap, heap + i);
      h ^= heap[i - 1];
    }
  }
  return h;
}

}  // namespace

void HostGauge::Sample() {
  double start = WallSeconds();
  // One untimed round brings the probe's lines back into cache, so the
  // timed rounds do not depend on how much the program evicted.
  probe_sink = ProbeKernel(1);
  double timed = WallSeconds();
  probe_sink = ProbeKernel(kProbeRounds);
  double end = WallSeconds();
  sum_s_ += end - timed;
  spent_s_ += end - start;
  ++samples_;
}

void RunGauged(sim::Executor* exec, HostGauge* gauge) {
  while (exec->Run(kGaugeSliceEvents) > 0) gauge->Sample();
}

void RunUntilGauged(sim::Executor* exec, sim::SimTime until,
                    HostGauge* gauge) {
  while (exec->now() < until) {
    exec->RunUntil(std::min(until, exec->now() + kGaugeSliceTime));
    gauge->Sample();
  }
}

double ReferenceSeconds(double wall_s, double exponent,
                        std::initializer_list<const HostGauge*> gauges) {
  double sum_s = 0;
  uint64_t samples = 0;
  for (const HostGauge* g : gauges) {
    sum_s += g->sum_s();
    samples += g->samples();
  }
  if (samples == 0) return wall_s;
  double probe_s = sum_s / static_cast<double>(samples);
  return wall_s * std::pow(kReferenceProbeSeconds / probe_s, exponent);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

uint64_t TaggedBytes(const sim::NetworkMetrics& m, const std::string& prefix) {
  uint64_t sum = 0;
  for (const auto& [tag, c] : m.by_tag) {
    if (tag.compare(0, prefix.size(), prefix) == 0) sum += c.bytes;
  }
  return sum;
}

void FpDoubles(Rep* rep, const std::vector<double>& v) {
  uint64_t h = 1469598103934665603ull;
  for (double x : v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  rep->fingerprint.push_back(h);
}

void DhtLayers(const dht::DhtMetrics& b, const dht::DhtMetrics& a, Rep* rep) {
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  double delivered = d(a.routes_delivered, b.routes_delivered);
  double hits = d(a.route_cache_hits, b.route_cache_hits);
  double lookups = hits + d(a.route_cache_misses, b.route_cache_misses);
  std::map<std::string, double>& L = rep->layer;
  L["dht.hops_per_route"] =
      delivered > 0 ? d(a.total_hops, b.total_hops) / delivered : 0;
  L["dht.route_cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  L["dht.get_retries"] = d(a.get_retries, b.get_retries);
  L["dht.resync_bytes"] = d(a.resync_bytes, b.resync_bytes);
  L["dht.detector_evictions"] = d(a.detector_evictions, b.detector_evictions);
}

void PierLayers(const pier::PierMetrics& b, const pier::PierMetrics& a,
                Rep* rep) {
  std::map<std::string, double>& L = rep->layer;
  L["pier.plans_executed"] =
      static_cast<double>(a.plans_executed - b.plans_executed);
  L["pier.partial_results"] =
      static_cast<double>(a.partial_results - b.partial_results);
  L["pier.credits_stalled"] =
      static_cast<double>(a.credits_stalled - b.credits_stalled);
  L["pier.adaptive_flushes"] =
      static_cast<double>(a.adaptive_flushes - b.adaptive_flushes);
}

PhaseProbe::PhaseProbe(sim::Network* net, Tracing* tr)
    : net_(net),
      tr_(tr),
      net_before_(net->metrics()),
      events_before_(net->executor()->events_executed()) {
  if (tr_) exec_before_ = tr_->exec->totals();
  net_->ResetLoadWatermarks();
}

void PhaseProbe::Finish(double measured_wall_s, Rep* rep) {
  std::map<std::string, double>& L = rep->layer;
  const sim::NetworkMetrics& now = net_->metrics();
  L["sim.events"] = static_cast<double>(net_->executor()->events_executed() -
                                        events_before_);
  L["net.messages"] =
      static_cast<double>(now.total.messages - net_before_.total.messages);
  L["net.bytes"] =
      static_cast<double>(now.total.bytes - net_before_.total.bytes);
  L["net.dropped"] = static_cast<double>(now.dropped_messages -
                                         net_before_.dropped_messages);
  for (const char* tag :
       {"dht.route", "dht.reply", "dht.maint", "dht.resync", "pier.answer",
        "pier.credit", "gnutella.query", "gnutella.hit"}) {
    sim::TrafficCounter a, b;
    if (auto it = now.by_tag.find(tag); it != now.by_tag.end()) a = it->second;
    if (auto it = net_before_.by_tag.find(tag);
        it != net_before_.by_tag.end()) {
      b = it->second;
    }
    std::string base = std::string("net.tag.") + tag;
    L[base + ".messages"] = static_cast<double>(a.messages - b.messages);
    L[base + ".bytes"] = static_cast<double>(a.bytes - b.bytes);
  }
  size_t peak = 0;
  for (sim::HostId h = 0; h < net_->host_count(); ++h) {
    peak = std::max(peak, net_->LoadOf(h).peak_in_flight_bytes);
  }
  L["net.inflight_peak_bytes"] = static_cast<double>(peak);

  if (tr_ == nullptr) return;
  TimingExecutor::Totals t = tr_->exec->totals();
  double handler[kNumHostClasses];
  for (int c = 0; c < kNumHostClasses; ++c) {
    handler[c] = t.handler_s[c] - exec_before_.handler_s[c];
  }
  double handler_total = handler[0] + handler[1] + handler[2];
  double run_wall = t.run_wall_s - exec_before_.run_wall_s;
  L["sim.handler_s"] = handler_total;
  L["sim.loop_s"] = run_wall - handler_total;
  L["sim.run_share"] = measured_wall_s > 0 ? run_wall / measured_wall_s : 0;
  L["sim.pending_max"] = static_cast<double>(t.pending_max);
  L["sim.cancels"] = static_cast<double>(t.cancels - exec_before_.cancels);
  L["sim.schedules"] =
      static_cast<double>(t.schedules - exec_before_.schedules);
  L["gnutella.handler_s"] = handler[kClassGnutella];
  L["dht.handler_s"] = handler[kClassDht];
  L["driver.handler_s"] = handler[kClassDriver];
  uint32_t shards = tr_->exec->shard_count();
  L["shard.parallel_eff"] =
      run_wall > 0 ? handler_total / (run_wall * shards) : 0;
}

double SpanMeanUs(const Tracing* tr, const std::string& name) {
  if (tr == nullptr) return 0;
  auto it = tr->spans.Summary().find(name);
  return it == tr->spans.Summary().end() ? 0 : it->second.mean_us();
}

void TimeTupleBatch(const std::vector<pier::Tuple>& tuples, Rep* rep) {
  if (tuples.empty()) return;
  pier::TupleBatch batch(tuples);
  // Enough rounds for ~1M tuples, so the figure is not timer noise.
  size_t rounds = std::max<size_t>(1, 1000000 / tuples.size());
  std::vector<uint8_t> image;
  double start = WallSeconds();
  for (size_t r = 0; r < rounds; ++r) image = batch.Serialize();
  double encode_s = WallSeconds() - start;
  size_t decoded = 0;
  start = WallSeconds();
  for (size_t r = 0; r < rounds; ++r) {
    auto out = pier::TupleBatch::Deserialize(image);
    decoded += out.ok() ? out.value().size() : 0;
  }
  double decode_s = WallSeconds() - start;
  double n = static_cast<double>(tuples.size() * rounds);
  rep->layer["pier.batch_encode_ns_per_tuple"] = encode_s * 1e9 / n;
  rep->layer["pier.batch_decode_ns_per_tuple"] = decode_s * 1e9 / n;
  if (decoded != tuples.size() * rounds) {
    rep->wrong += 1;
    if (rep->first_error.empty()) {
      rep->first_error = "TupleBatch round trip lost tuples";
    }
  }
}

}  // namespace perfbench
