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

/// An event on its way into or out of a CanonicalQueue (and the payload of
/// ShardedExecutor's cross-shard mailboxes).
struct CanonicalEvent {
  SimTime time = 0;
  uint64_t origin_seq = 0;      ///< Monotonic per-origin at schedule time.
  HostId origin = kDriverHost;  ///< Host whose handler scheduled it.
  HostId owner = kDriverHost;   ///< Host whose state the handler touches.
  std::function<void()> fn;
};

/// What the heap orders: an event's canonical key plus the index of the
/// slot that holds its closure and owner.
struct QueueKey {
  SimTime time;
  HostId origin;
  uint32_t slot;
  uint64_t origin_seq;
};

/// Min-heap order on the canonical key (time, origin, origin_seq).
struct CanonicalLater {
  bool operator()(const QueueKey& a, const QueueKey& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.origin != b.origin) return a.origin > b.origin;
    return a.origin_seq > b.origin_seq;
  }
};

/// Priority queue over canonical keys with lazy cancellation, shared by
/// SerialExecutor (one queue) and ShardedExecutor (one per shard, plus one
/// for driver events).
///
/// Storage: the binary heap holds only 24-byte QueueKeys. Each event's
/// closure and owner live in a slot of `slots_`, recycled through a free
/// list, so sifting the heap never moves a std::function.
///
/// Handles: Push returns the event's cancel handle, laid out as
///
///   bits 63..56   bits 55..24        bits 23..0
///   zero          slot generation    slot index
///
/// The top 8 bits stay zero, so ShardedExecutor can shift an 8-bit shard
/// tag in beneath a handle without losing a bit. A slot's generation
/// changes every time the slot is freed, and Cancel compares both fields, so
/// a handle outlives its event harmlessly: once the event ran or its
/// cancelled key surfaced, the handle misses the slot's later occupants (a
/// generation repeats only after 2^32 - 1 reuses of one slot). Generations
/// start at 1 and skip 0, so no handle equals kInvalidEventId. A
/// queue holds at most kMaxSlots slots at once; Push aborts past that in
/// every build type, since a wider index would no longer fit the handle.
///
/// Lazy cancellation: Cancel only marks the slot dead; its key stays in the
/// heap and is skipped when it surfaces at the top. Only then does the slot
/// return to the free list. Freeing it at Cancel time would let a new event
/// take the slot while the old key still names it, and that key would
/// surface at the old time and run (or skip) the new occupant's closure.
class CanonicalQueue {
 public:
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint32_t kGenerationBits = 32;
  static constexpr uint32_t kHandleBits = kSlotBits + kGenerationBits;
  static constexpr uint32_t kMaxSlots = uint32_t{1} << kSlotBits;

  /// Queues `ev` and returns its cancel handle (never kInvalidEventId).
  EventId Push(CanonicalEvent ev);
  /// Pops the minimum live event into `out` if its time <= bound.
  /// Returns false when the queue is empty or the minimum is later.
  bool PopUpTo(SimTime bound, CanonicalEvent* out);
  /// Key of the earliest live event, or nullptr when empty. Valid until the
  /// next mutating call.
  const QueueKey* Peek();
  /// Pops and returns the earliest event. Call only after Peek or PeekTime
  /// found one: they skip the cancelled keys above it.
  CanonicalEvent PopTop();
  /// Time of the earliest live event; false when empty.
  bool PeekTime(SimTime* t);
  /// Drops a live event. False for a handle whose event already ran, was
  /// cancelled before, or was never issued by this queue.
  bool Cancel(EventId handle);
  size_t pending() const { return live_; }

 private:
  struct Slot {
    std::function<void()> fn;
    HostId owner = kDriverHost;
    uint32_t generation = 1;
    bool live = false;  ///< Queued, not yet run or cancelled.
  };

  void SkipCancelled();
  void Free(uint32_t slot);

  std::priority_queue<QueueKey, std::vector<QueueKey>, CanonicalLater> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;  ///< Live events (queued, neither run nor cancelled).
};

/// Next canonical sequence number of real host `origin`, from a counter
/// vector indexed by host (the driver origin keeps its own counter).
inline uint64_t NextOriginSeq(std::vector<uint64_t>* seqs, HostId origin) {
  if (origin >= seqs->size()) seqs->resize(size_t{origin} + 1, 0);
  return (*seqs)[origin]++;
}

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
  std::vector<uint64_t> origin_seq_;  ///< Per real host, index = HostId.
  uint64_t driver_seq_ = 0;           ///< The kDriverHost origin's counter.
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
