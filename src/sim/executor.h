// The Executor seam: the narrow interface every protocol layer schedules
// against, decoupling DhtNode/PierNode/Gnutella code from any particular
// event-loop backend.
//
// Two backends implement it:
//  * sim::SerialExecutor (below) — single-threaded; orders equal-time
//    events by the *canonical key* (time, origin host, per-origin seq).
//    This is the reference ordering a parallel backend can reproduce, and
//    the baseline every sharded run is fingerprint-checked against.
//  * sim::ShardedExecutor (shard.h) — N worker threads, hosts partitioned
//    across per-shard queues, advancing in barrier epochs bounded by the
//    minimum network latency (the lookahead). Same canonical key, so a
//    fixed seed yields the same counters and answers as SerialExecutor.
//
// Why the canonical key works across backends: an event's key is assigned
// by its *scheduling context* (the host whose handler scheduled it, or the
// driver), and every host's events execute in strictly increasing key
// order on every backend. By induction each host observes the identical
// sequence of deliveries and timer fires, so it performs the identical
// schedules — same children, same keys — regardless of how events of
// *different* hosts interleave in wall-clock time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace pierstack::sim {

/// Simulated time in microseconds since simulation start.
using SimTime = uint64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1000 * kMillisecond;
constexpr SimTime kMinute = 60 * kSecond;

/// Identifies a scheduled event so it can be cancelled (e.g. timeouts).
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

/// Dense id of a host attached to the network (network.h / fault.h).
using HostId = uint32_t;

/// Pseudo-host owning driver-side events: churn timelines, test harness
/// timers — anything scheduled from outside a host's message handler. A
/// sharded backend runs these serialized at epoch barriers, where it may
/// safely touch any host. Sorts after every real host at equal time.
constexpr HostId kDriverHost = UINT32_MAX;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Simulated clock of the calling context: the current event's time from
  /// inside a handler, the global horizon from driver code.
  virtual SimTime now() const = 0;

  /// Schedules `fn` at absolute time `t` (>= now) in `owner`'s execution
  /// domain — `fn` must only touch `owner`'s state (or, for kDriverHost,
  /// runs exclusively and may touch anything). Returns a cancellable id,
  /// or kInvalidEventId when the backend cannot make it cancellable (a
  /// cross-shard handoff; only fire-and-forget deliveries take that path).
  virtual EventId ScheduleAt(HostId owner, SimTime t,
                             std::function<void()> fn) = 0;

  /// Schedules `fn` `delay` after now, same contract as ScheduleAt.
  EventId ScheduleAfter(HostId owner, SimTime delay,
                        std::function<void()> fn) {
    return ScheduleAt(owner, now() + delay, std::move(fn));
  }

  /// Cancels a pending event. Returns false if it already ran, was
  /// cancelled before, or never existed. Only legal from the owning
  /// shard's context or from driver code.
  virtual bool Cancel(EventId id) = 0;

  /// Driver-side: runs events until none remain or `limit` executed.
  /// Returns the number executed (epoch-granular for sharded backends).
  virtual size_t Run(size_t limit = SIZE_MAX) = 0;

  /// Driver-side: runs all events with time <= t, then advances every
  /// clock to exactly t. Returns the number executed.
  virtual size_t RunUntil(SimTime t) = 0;

  /// RunUntil(now + duration).
  size_t RunFor(SimTime duration) { return RunUntil(now() + duration); }

  /// Number of pending (non-cancelled) events.
  virtual size_t pending() const = 0;

  /// Total events executed since construction.
  virtual uint64_t events_executed() const = 0;

  /// Number of parallel shards (1 for serial backends).
  virtual uint32_t shard_count() const { return 1; }

  /// Slab index for the calling thread, in [0, shard_count()]: the worker
  /// shard index, or shard_count() for driver/coordinator context. Used by
  /// Network to pick shard-local metric slabs.
  virtual uint32_t CurrentSlab() const { return 0; }
};

namespace detail {

/// An event keyed for canonical cross-backend ordering.
struct CanonicalEvent {
  SimTime time = 0;
  HostId origin = kDriverHost;  ///< Host whose handler scheduled it.
  uint64_t origin_seq = 0;      ///< Monotonic per-origin at schedule time.
  HostId owner = kDriverHost;   ///< Host whose state the handler touches.
  EventId id = kInvalidEventId;  ///< 0 = not cancellable.
  std::function<void()> fn;
};

/// Min-heap order on the canonical key (time, origin, origin_seq).
struct CanonicalLater {
  bool operator()(const CanonicalEvent& a, const CanonicalEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.origin != b.origin) return a.origin > b.origin;
    return a.origin_seq > b.origin_seq;
  }
};

/// Priority queue over canonical keys with lazy cancellation, shared by
/// SerialExecutor (one queue) and ShardedExecutor (one per shard).
/// Cancellable events are tracked by id while they are live (queued and
/// neither run nor cancelled); a heap entry whose id left that set is
/// skipped when it surfaces.
class CanonicalQueue {
 public:
  void Push(CanonicalEvent ev);
  /// Pops the minimum live event into `out` if its time <= bound.
  /// Returns false when the queue is empty or the minimum is later.
  bool PopUpTo(SimTime bound, CanonicalEvent* out);
  /// Earliest live event, or nullptr when empty. Valid until the next
  /// mutating call.
  const CanonicalEvent* Peek();
  /// Pops and returns the earliest live event (queue must be non-empty).
  CanonicalEvent PopTop();
  /// Time of the earliest live event; false when empty.
  bool PeekTime(SimTime* t);
  /// Drops a live event. False for an id that already ran, was cancelled
  /// before, or was never pushed here.
  bool Cancel(EventId id);
  size_t pending() const { return live_; }

 private:
  void SkipCancelled();
  std::priority_queue<CanonicalEvent, std::vector<CanonicalEvent>,
                      CanonicalLater>
      heap_;
  std::unordered_set<EventId> live_ids_;  ///< Cancellable and still due.
  size_t live_ = 0;  ///< Live events, cancellable or not.
};

}  // namespace detail

/// Single-threaded Executor with canonical event ordering — the reference
/// backend sharded runs are fingerprint-checked against, and the serial
/// half of every backend-equivalence test.
class SerialExecutor : public Executor {
 public:
  SerialExecutor() = default;
  SerialExecutor(const SerialExecutor&) = delete;
  SerialExecutor& operator=(const SerialExecutor&) = delete;

  SimTime now() const override { return now_; }
  EventId ScheduleAt(HostId owner, SimTime t,
                     std::function<void()> fn) override;
  bool Cancel(EventId id) override;
  size_t Run(size_t limit = SIZE_MAX) override;
  size_t RunUntil(SimTime t) override;
  size_t pending() const override { return queue_.pending(); }
  uint64_t events_executed() const override { return executed_; }

 private:
  bool RunOne(SimTime bound);

  SimTime now_ = 0;
  HostId current_origin_ = kDriverHost;  ///< Context assigning child keys.
  detail::CanonicalQueue queue_;
  std::unordered_map<HostId, uint64_t> origin_seq_;
  EventId next_id_ = 1;
  uint64_t executed_ = 0;
};

/// Test/bench backend selection: returns a ShardedExecutor with
/// PIERSTACK_SHARDS workers when that env var is set above 1 AND the
/// workload has nonzero lookahead, else a SerialExecutor. `lookahead` must
/// be a lower bound on every cross-host delivery delay (the minimum
/// network latency; Network::MinSendLatency()). This is how the CI
/// PIERSTACK_SHARDS=4 leg reruns tier-1 on the sharded backend without
/// each test hard-coding one.
std::unique_ptr<Executor> MakeEnvExecutor(SimTime lookahead);

}  // namespace pierstack::sim
