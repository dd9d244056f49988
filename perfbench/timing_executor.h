// TimingExecutor: a sim::Executor decorator for the traced benchmark run.
//
// It forwards every call to a real backend (SerialExecutor or
// ShardedExecutor) and wraps each scheduled event so that the event's
// handler wall time is measured with steady_clock and charged to the class
// of the host that owns the event (Gnutella, DHT/PIER, or the driver).
// Accumulators are per executor slab (one per worker shard plus one for the
// coordinator), so each is written by one thread at a time and the sharded
// backend needs no locks on the hot path. Schedules, cancels and the
// high-water mark of pending events are counted with relaxed atomics.
//
// The decorator does not change event order: the backend assigns the same
// canonical keys to wrapped events, so a traced run produces the same
// simulated-clock results as an untraced one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/executor.h"

namespace perfbench {

/// Which layer's code a host runs; the key handler time is bucketed by.
enum HostClass : uint8_t {
  kClassGnutella = 0,
  kClassDht = 1,  ///< DHT nodes and the PIER/PIERSearch code they host.
  kClassDriver = 2,
  kNumHostClasses = 3,
};

class TimingExecutor : public pierstack::sim::Executor {
 public:
  explicit TimingExecutor(std::unique_ptr<pierstack::sim::Executor> inner);
  TimingExecutor(const TimingExecutor&) = delete;
  TimingExecutor& operator=(const TimingExecutor&) = delete;

  /// Declares the class of `host`. Hosts never declared count as DHT hosts;
  /// kDriverHost is always the driver class. Setup context only.
  void SetHostClass(pierstack::sim::HostId host, HostClass cls);

  pierstack::sim::SimTime now() const override { return inner_->now(); }
  pierstack::sim::EventId ScheduleAt(pierstack::sim::HostId owner,
                                     pierstack::sim::SimTime t,
                                     std::function<void()> fn) override;
  bool Cancel(pierstack::sim::EventId id) override;
  size_t Run(size_t limit = SIZE_MAX) override;
  size_t RunUntil(pierstack::sim::SimTime t) override;
  size_t pending() const override { return inner_->pending(); }
  uint64_t events_executed() const override {
    return inner_->events_executed();
  }
  uint32_t shard_count() const override { return inner_->shard_count(); }
  uint32_t CurrentSlab() const override { return inner_->CurrentSlab(); }

  /// Totals so far. Driver context only, between runs.
  struct Totals {
    double handler_s[kNumHostClasses] = {0, 0, 0};
    double run_wall_s = 0;  ///< Wall time spent inside Run/RunUntil.
    uint64_t schedules = 0;
    uint64_t cancels = 0;
    uint64_t pending_max = 0;
  };
  Totals totals() const;

 private:
  struct alignas(64) Slab {
    double handler_s[kNumHostClasses] = {0, 0, 0};
  };

  HostClass ClassOf(pierstack::sim::HostId host) const;
  void NotePending(int64_t delta);

  std::unique_ptr<pierstack::sim::Executor> inner_;
  std::vector<HostClass> host_class_;  ///< index = HostId
  std::vector<Slab> slabs_;            ///< index = CurrentSlab()
  double run_wall_s_ = 0;
  std::atomic<uint64_t> schedules_{0};
  std::atomic<uint64_t> cancels_{0};
  std::atomic<int64_t> pending_{0};
  std::atomic<int64_t> pending_max_{0};
};

}  // namespace perfbench
