// Shared vocabulary of the benchmark driver: what one repetition of a
// workload returns, the tracing hooks a traced repetition carries, and the
// helpers every workload uses to read the layers' counters from outside.
//
// A repetition ("rep") is one complete, seeded trial: set-up, a publish
// phase, then an open-loop query phase. Every operation of a phase has a
// due time on a fixed simulated-clock schedule; its latency counts from
// that due time. Simulated-clock results of a rep are a pure function of
// the seed, which the driver checks by repeating the rep.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dht/node.h"
#include "pier/node.h"
#include "pier/schema.h"
#include "sim/executor.h"
#include "sim/network.h"
#include "spans.h"
#include "timing_executor.h"

namespace perfbench {

/// Present only in traced reps: the timing decorator and the span log.
struct Tracing {
  TimingExecutor* exec = nullptr;  ///< Set by MakeExecutor.
  SpanRecorder spans;
};

/// Time the probe kernel takes at the reference host speed: about its mean
/// on the shared 4-vCPU Xeon host the benchmark was sized on.
constexpr double kReferenceProbeSeconds = 30e-6;
/// How steeply the program's wall time follows the probe's: a phase that
/// ran while the probe was k times slower took about k^1.4 times longer.
/// The program slows more than the probe, whose data sit in a few cache
/// lines. Fitted on the same host: log-log slopes of rep time against the
/// rep's mean probe time, over same-seed reps, came out 1.1-1.7 on the
/// three serial workloads. Dividing by probe^1.4 left 0.04-0.16 of the
/// reps' 0.12-0.48 interquartile spread; dividing by probe^1 left
/// 0.04-0.20.
constexpr double kSerialProbeExponent = 1.4;
/// The sharded backend runs events on worker threads, on other cores than
/// the probe, which runs on the driver thread between slices, so its time
/// follows the probe less steeply. Over three sets of ten dht_churn_sharded
/// seeds, whose throughputs spread 0.10-0.26, scaling each run by its mean
/// probe left 0.03-0.10 at exponent 0.8, 0.02-0.13 at 0.5 and 0.09-0.26
/// at 1.4.
constexpr double kShardedProbeExponent = 0.8;

/// Gauges how fast the host runs while a phase runs. A shared host slows
/// the benchmark by up to 2-3x for seconds to minutes at a time, as other
/// tenants come and go, and a tight loop slows with it. So a phase runs in
/// slices, and between slices the gauge times a fixed probe kernel — a
/// cache-resident heap fill-and-drain that touches none of the program's
/// data. The probe's mean time over the phase, against
/// kReferenceProbeSeconds and raised to the backend's exponent, scales the
/// phase's wall time to reference seconds (see ReferenceSeconds). Sampling
/// costs about 1% of the phase.
class HostGauge {
 public:
  void Sample();  ///< Runs and times the probe once.
  double sum_s() const { return sum_s_; }      ///< Timed probe seconds.
  double spent_s() const { return spent_s_; }  ///< All sampling time.
  uint64_t samples() const { return samples_; }

 private:
  double sum_s_ = 0;
  double spent_s_ = 0;
  uint64_t samples_ = 0;
};

/// Runs a serial executor to quiescence in fixed event-count slices,
/// sampling `gauge` after each. Event order is that of one Run().
void RunGauged(pierstack::sim::Executor* exec, HostGauge* gauge);
/// RunUntil(`until`) in fixed simulated-time slices, sampling `gauge`
/// after each; any backend.
void RunUntilGauged(pierstack::sim::Executor* exec,
                    pierstack::sim::SimTime until, HostGauge* gauge);

/// `wall_s` measured while `gauges` sampled, in reference seconds, for a
/// phase whose time follows the probe's with `exponent`.
double ReferenceSeconds(double wall_s, double exponent,
                        std::initializer_list<const HostGauge*> gauges);

/// The result of one rep.
struct Rep {
  // Wall-clock (differs run to run). Phase wall times leave out the time
  // spent sampling their gauges.
  double setup_trace_s = 0;   ///< Trace generation and ground truth.
  double setup_build_s = 0;   ///< Deployment construction.
  double setup_settle_s = 0;  ///< Initial settle of the deployment.
  double publish_wall_s = 0;
  double query_wall_s = 0;
  HostGauge publish_gauge;
  HostGauge query_gauge;
  double probe_exponent = kSerialProbeExponent;  ///< Of the rep's backend.

  // Simulated-clock and counted results (repeat exactly for a seed).
  uint64_t published = 0;  ///< Copies/records/keys published, publish phase.
  uint64_t queries = 0;    ///< Query-phase operations issued.
  uint64_t attempted = 0;  ///< Every operation the driver issued.
  uint64_t failed = 0;     ///< Non-OK, partial/shed, or wrong answers.
  uint64_t wrong = 0;      ///< The wrong-answer slice of `failed`.
  std::string first_error;  ///< Describes the first wrong answer.
  std::vector<double> latency_ms;  ///< Per successful query-phase operation.
  double recall_num = 0;
  double recall_den = 0;
  uint64_t publish_bytes = 0;
  uint64_t query_bytes = 0;
  bool oracle_checked = false;
  bool oracle_clean = true;
  std::string oracle_detail;

  /// Everything that must repeat bit-for-bit under the same seed.
  std::vector<uint64_t> fingerprint;
  /// Per-layer metrics of this rep (timings only filled when traced).
  std::map<std::string, double> layer;
};

/// Workload entry points. `shards` > 1 selects sim::ShardedExecutor.
/// `check_oracle` runs the post-run ring oracle (DHT workloads).
Rep RunSearchJoin(uint64_t seed, Tracing* tr);
Rep RunHybridFlood(uint64_t seed, Tracing* tr);
Rep RunDhtChurn(uint64_t seed, uint32_t shards, bool check_oracle,
                Tracing* tr);

/// Serial (canonical) or sharded backend, wrapped in a TimingExecutor when
/// `tr` is non-null.
std::unique_ptr<pierstack::sim::Executor> MakeExecutor(
    uint32_t shards, pierstack::sim::SimTime lookahead, Tracing* tr);

double WallSeconds();  ///< steady_clock seconds since an arbitrary origin.

/// Nearest-rank percentile of `v` (p in [0, 100]); 0 for an empty vector.
double Percentile(std::vector<double> v, double p);

/// Bytes over tags starting with `prefix` (every tag for "").
uint64_t TaggedBytes(const pierstack::sim::NetworkMetrics& m,
                     const std::string& prefix);

/// Brackets the measured phases (publish + query) of a rep: network and
/// executor counters at the start, folded into per-layer metrics at the
/// end. Driver context only.
class PhaseProbe {
 public:
  PhaseProbe(pierstack::sim::Network* net, Tracing* tr);
  /// Writes the sim.*, net.* and shard.* per-layer metrics of the bracketed
  /// interval into `rep->layer`; `measured_wall_s` is its wall duration.
  void Finish(double measured_wall_s, Rep* rep);

 private:
  pierstack::sim::Network* net_;
  Tracing* tr_;
  pierstack::sim::NetworkMetrics net_before_;
  uint64_t events_before_;
  TimingExecutor::Totals exec_before_;
};

/// dht.* per-layer counters over an interval, from deployment metrics
/// snapshots taken at its ends.
void DhtLayers(const pierstack::dht::DhtMetrics& before,
               const pierstack::dht::DhtMetrics& after, Rep* rep);
/// pier.* per-layer counters over an interval.
void PierLayers(const pierstack::pier::PierMetrics& before,
                const pierstack::pier::PierMetrics& after, Rep* rep);

/// Span means, in microseconds, for the per-layer call-time metrics.
double SpanMeanUs(const Tracing* tr, const std::string& name);

/// Times TupleBatch encode and decode on `tuples` (the workload's own
/// tuples) and stores pier.batch_{encode,decode}_ns_per_tuple.
void TimeTupleBatch(const std::vector<pierstack::pier::Tuple>& tuples,
                    Rep* rep);

/// Appends values to a rep's fingerprint (a vector of doubles folded into
/// one FNV-1a hash of their bit patterns).
inline void Fp(Rep* rep, uint64_t v) { rep->fingerprint.push_back(v); }
void FpDoubles(Rep* rep, const std::vector<double>& v);

}  // namespace perfbench
