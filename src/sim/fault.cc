#include "sim/fault.h"

#include <algorithm>

namespace pierstack::sim {

namespace {

// SplitMix64 step (mirrors sim/network.cc): derives the per-send decision
// streams. `salt` separates the drop draw from the spike draw so the two
// decisions stay independent.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t DecisionKey(uint64_t seed, HostId from, HostId to, uint64_t seq,
                     uint64_t salt) {
  return Mix(Mix(Mix(Mix(seed ^ salt) ^ from) ^ to) ^ seq);
}

constexpr uint64_t kDropSalt = 0x6c6f7373;   // "loss"
constexpr uint64_t kSpikeSalt = 0x7370696b;  // "spik"

}  // namespace

void FaultPlan::AddPartitionWindow(PartitionWindow window) {
  if (window.heal_time <= window.start || window.groups.empty()) return;
  windows_.push_back(std::move(window));
}

bool FaultPlan::CrossesSplit(const PartitionWindow& w, uint32_t from,
                             uint32_t to) {
  if (from == to) return false;
  if (w.one_way.empty()) return true;
  for (const auto& [src, dst] : w.one_way) {
    if (src == from && dst == to) return true;
  }
  return false;
}

bool FaultPlan::ShouldDrop(HostId from, HostId to, uint64_t send_seq,
                           SimTime now) {
  if (from == to) return false;
  // Timed splits: active purely by the sender's clock, so a window both
  // activates and heals without any driver event and the decision is
  // identical on every Executor backend.
  for (const PartitionWindow& w : windows_) {
    if (now < w.start || now >= w.heal_time) continue;
    auto g = [&](HostId h) {
      auto it = w.groups.find(h);
      return it == w.groups.end() ? uint32_t{0} : it->second;
    };
    if (CrossesSplit(w, g(from), g(to))) {
      ++counters_.partition_drops;
      return true;
    }
  }
  if (message_loss_ > 0.0) {
    Rng rng(DecisionKey(seed_, from, to, send_seq, kDropSalt));
    if (rng.NextBernoulli(message_loss_)) {
      ++counters_.loss_drops;
      return true;
    }
  }
  return false;
}

SimTime FaultPlan::ExtraLatency(HostId from, HostId to, uint64_t send_seq) {
  if (from == to) return 0;
  if (spike_probability_ > 0.0 && spike_delay_ > 0) {
    Rng rng(DecisionKey(seed_, from, to, send_seq, kSpikeSalt));
    if (rng.NextBernoulli(spike_probability_)) {
      ++counters_.latency_spikes;
      return spike_delay_;
    }
  }
  return 0;
}

void FaultPlan::AddFailSlow(HostId host, SimTime start, SimTime duration,
                            SimTime extra) {
  if (duration == 0 || extra == 0) return;
  fail_slow_[host].push_back(FailSlowWindow{start, start + duration, extra});
}

SimTime FaultPlan::ProcessingPenalty(HostId to, SimTime now) {
  if (fail_slow_.empty()) return 0;
  auto it = fail_slow_.find(to);
  if (it == fail_slow_.end()) return 0;
  SimTime penalty = 0;
  for (const FailSlowWindow& w : it->second) {
    if (now >= w.start && now < w.end) penalty += w.extra;
  }
  if (penalty > 0) ++counters_.slow_deliveries;
  return penalty;
}

void FaultPlan::CountChurn(ChurnEvent::Kind kind) {
  switch (kind) {
    case ChurnEvent::kCrash:
      ++counters_.churn_crashes;
      break;
    case ChurnEvent::kJoin:
      ++counters_.churn_joins;
      break;
    case ChurnEvent::kRestart:
      ++counters_.churn_restarts;
      break;
  }
}

std::vector<ChurnEvent> FaultPlan::FlashCrowdJoin(SimTime start, size_t joins,
                                                  SimTime window) {
  std::vector<ChurnEvent> out;
  out.reserve(joins);
  if (joins == 0) return out;
  // Even spacing across the window keeps the burst shape independent of any
  // RNG stream — the same 10%-of-the-ring minute every run.
  SimTime step = window / joins;
  for (size_t i = 0; i < joins; ++i) {
    out.push_back(ChurnEvent{start + i * step, ChurnEvent::kJoin});
  }
  return out;
}

std::vector<ChurnEvent> FaultPlan::MassLeave(SimTime at, size_t crashes) {
  std::vector<ChurnEvent> out;
  out.reserve(crashes);
  for (size_t i = 0; i < crashes; ++i) {
    out.push_back(ChurnEvent{at, ChurnEvent::kCrash});
  }
  return out;
}

std::vector<ChurnEvent> FaultPlan::CrashRestart(SimTime crash_at,
                                                SimTime restart_at,
                                                size_t count) {
  std::vector<ChurnEvent> out;
  out.reserve(2 * count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(ChurnEvent{crash_at, ChurnEvent::kCrash});
  }
  for (size_t i = 0; i < count; ++i) {
    out.push_back(ChurnEvent{restart_at, ChurnEvent::kRestart});
  }
  return out;
}

std::vector<ChurnEvent> FaultPlan::SustainedChurn(SimTime start,
                                                  SimTime duration,
                                                  double events_per_minute,
                                                  uint64_t seed) {
  std::vector<ChurnEvent> out;
  if (events_per_minute <= 0.0 || duration == 0) return out;
  Rng rng(seed);
  double mean_gap =
      static_cast<double>(kMinute) / events_per_minute;  // microseconds
  SimTime t = start;
  // Alternate join/crash so the population oscillates around its starting
  // size instead of draining — sustained N%/min churn, not decay.
  bool join_next = true;
  for (;;) {
    t += static_cast<SimTime>(std::max(1.0, rng.NextExponential(mean_gap)));
    if (t >= start + duration) break;
    out.push_back(
        ChurnEvent{t, join_next ? ChurnEvent::kJoin : ChurnEvent::kCrash});
    join_next = !join_next;
  }
  return out;
}

}  // namespace pierstack::sim
