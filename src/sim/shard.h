// ShardedExecutor: a multi-threaded Executor backend partitioning hosts
// across N worker shards, each with its own canonical priority queue and
// per-shard clock.
//
// Determinism comes from conservative barrier epochs. The simulated
// timeline is cut into windows aligned to the `lookahead` L — a lower
// bound on every cross-host delivery delay (the minimum network latency).
// Within a window [kL, (k+1)L) every shard drains its own queue in
// canonical key order; any event it schedules for another shard is at
// least L in the future, i.e. strictly past the window, so it cannot be
// missed: cross-shard events ride per-(src,dst) mutex-guarded mailboxes
// that the coordinator batch-drains at the window barrier, before any
// shard's clock passes the global horizon. Equal-time events across
// shards touch disjoint hosts and may run in any wall-clock order; each
// individual host still observes its events in exactly the canonical
// (time, origin, origin_seq) order SerialExecutor uses, which is what
// makes a fixed seed produce fingerprint-identical counters and answers
// on both backends (asserted by tests/integration/shard_equivalence_test
// and the BM_ShardScale_* gate).
//
// Driver events (owner == kDriverHost: churn timelines, harness timers)
// may touch any host, so they are a barrier of their own: the window is
// cut at the next driver-event time, the shards run only up to just before
// it, and the coordinator runs a merged canonical loop — every event of
// that instant, driver or host, plus everything they spawn inside the
// window — serially, with all workers parked. That reproduces the serial
// backend's ordering around topology mutations exactly.
//
// Event ids: a shard's (or the driver queue's) CanonicalQueue issues a
// 56-bit cancel handle (executor.h), and the EventId is that handle shifted
// up past an 8-bit tag naming the queue, so Cancel routes by the tag.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/executor.h"

namespace pierstack::sim {

class ShardedExecutor : public Executor {
 public:
  struct Options {
    uint32_t shards = 2;  ///< Worker thread count, in [1, 250].
    /// Lower bound on every cross-host scheduled delay (minimum network
    /// latency + any extra). Must be > 0; windows span exactly this much
    /// simulated time, so a too-small bound costs barriers, and a
    /// too-large one trips the drain-time assertion.
    SimTime lookahead = kMillisecond;
  };

  explicit ShardedExecutor(Options opts);
  ~ShardedExecutor() override;
  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  SimTime now() const override;
  EventId ScheduleAt(HostId owner, SimTime t,
                     std::function<void()> fn) override;
  bool Cancel(EventId id) override;
  size_t Run(size_t limit = SIZE_MAX) override;
  size_t RunUntil(SimTime t) override;
  /// Driver-side only (like Run/RunUntil): counts are exact between runs.
  size_t pending() const override;
  uint64_t events_executed() const override;
  uint32_t shard_count() const override { return nshards_; }
  uint32_t CurrentSlab() const override;

  /// Which shard executes a host's events.
  uint32_t ShardOf(HostId owner) const { return owner % nshards_; }
  SimTime lookahead() const { return lookahead_; }

 private:
  /// Cross-shard handoff buffer; one per (source shard, destination).
  struct Mailbox {
    std::mutex mu;
    std::vector<detail::CanonicalEvent> events;
  };

  struct Shard {
    uint32_t index = 0;
    detail::CanonicalQueue queue;
    SimTime clock = 0;  ///< Time of the last executed event on this shard.
    HostId current_origin = kDriverHost;
    std::vector<uint64_t> origin_seq;  ///< Per host of this shard, by HostId.
    uint64_t executed = 0;
    /// outbox[d]: events this shard scheduled for shard d (d != index).
    std::vector<std::unique_ptr<Mailbox>> outbox;
    std::thread thread;
  };

  void WorkerLoop(Shard* shard);
  void RunShardEpoch(Shard* shard, SimTime bound);
  /// Runs one barrier epoch ending at `bound` (inclusive): parallel shard
  /// phase, mailbox drain, then the merged driver loop. `driver_due` says a
  /// driver event is due at `bound`; the merged loop then runs that whole
  /// instant. Returns events run.
  size_t RunEpoch(SimTime bound, bool driver_due);
  /// The main loop shared by Run/RunUntil: epochs while events <= t_limit
  /// remain (and fewer than `limit` ran). Exclusive (driver) context.
  size_t RunCore(SimTime t_limit, size_t limit);
  void DrainMailboxes(SimTime window_end);
  uint64_t NextSeqFor(HostId origin);

  const uint32_t nshards_;
  const SimTime lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Driver-side state: touched only from driver/coordinator context or
  // under driver_inbox_.mu (worker-scheduled driver events).
  detail::CanonicalQueue driver_queue_;
  Mailbox driver_inbox_;
  uint64_t driver_seq_ = 0;
  uint64_t driver_executed_ = 0;
  SimTime horizon_ = 0;       ///< Global clock between epochs.
  SimTime driver_clock_ = 0;  ///< Current event time inside the driver loop.
  bool in_driver_phase_ = false;
  HostId coord_origin_ = kDriverHost;  ///< Scheduling context, driver loop.

  // Epoch barrier (generation-counted; C++17 has no std::barrier).
  std::mutex epoch_mu_;
  std::condition_variable epoch_cv_;   ///< Coordinator -> workers.
  std::condition_variable done_cv_;    ///< Workers -> coordinator.
  uint64_t epoch_gen_ = 0;
  SimTime epoch_bound_ = 0;
  uint32_t workers_done_ = 0;
  bool shutdown_ = false;
};

}  // namespace pierstack::sim
