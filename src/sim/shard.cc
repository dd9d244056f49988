#include "sim/shard.h"

#include <cassert>

namespace pierstack::sim {

namespace {

// Worker-thread identity: which executor's shard this thread is, if any.
// Keyed by executor address; workers die with their executor, so a stale
// pointer can never be observed by a live executor's calls.
thread_local const void* tls_exec = nullptr;
thread_local uint32_t tls_shard_idx = 0;

// An EventId is a queue's cancel handle shifted up past an 8-bit tag naming
// the queue: the worker shard's index, or kDriverTag for the driver queue.
constexpr uint32_t kDriverTag = 0xFE;
constexpr uint32_t kTagBits = 8;
constexpr uint32_t kTagMask = 0xFF;
static_assert(detail::CanonicalQueue::kHandleBits + kTagBits <= 64,
              "a tagged queue handle must fit an EventId");

EventId Tagged(uint32_t tag, EventId handle) {
  return (handle << kTagBits) | tag;
}

}  // namespace

ShardedExecutor::ShardedExecutor(Options opts)
    : nshards_(opts.shards), lookahead_(opts.lookahead) {
  assert(nshards_ >= 1 && nshards_ < kDriverTag);
  assert(lookahead_ > 0);
  shards_.reserve(nshards_);
  for (uint32_t i = 0; i < nshards_; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->outbox.reserve(nshards_);
    for (uint32_t d = 0; d < nshards_; ++d) {
      shard->outbox.push_back(std::make_unique<Mailbox>());
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread(&ShardedExecutor::WorkerLoop, this,
                                shard.get());
  }
}

ShardedExecutor::~ShardedExecutor() {
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    shutdown_ = true;
  }
  epoch_cv_.notify_all();
  for (auto& shard : shards_) shard->thread.join();
}

SimTime ShardedExecutor::now() const {
  if (tls_exec == this) return shards_[tls_shard_idx]->clock;
  if (in_driver_phase_) return driver_clock_;
  return horizon_;
}

uint32_t ShardedExecutor::CurrentSlab() const {
  return tls_exec == this ? tls_shard_idx : nshards_;
}

uint64_t ShardedExecutor::NextSeqFor(HostId origin) {
  if (origin == kDriverHost) return driver_seq_++;
  return detail::NextOriginSeq(&shards_[ShardOf(origin)]->origin_seq, origin);
}

EventId ShardedExecutor::ScheduleAt(HostId owner, SimTime t,
                                    std::function<void()> fn) {
  detail::CanonicalEvent ev;
  ev.time = t;
  ev.owner = owner;
  ev.fn = std::move(fn);
  if (tls_exec == this) {
    // Worker context: keys come from the executing host on this shard.
    Shard* s = shards_[tls_shard_idx].get();
    assert(t >= s->clock);
    ev.origin = s->current_origin;
    ev.origin_seq = detail::NextOriginSeq(&s->origin_seq, ev.origin);
    if (owner == kDriverHost) {
      std::lock_guard<std::mutex> lock(driver_inbox_.mu);
      driver_inbox_.events.push_back(std::move(ev));
      return kInvalidEventId;
    }
    uint32_t dst = ShardOf(owner);
    if (dst == s->index) {
      return Tagged(s->index, s->queue.Push(std::move(ev)));
    }
    // Cross-shard handoff: parked in the mailbox until the barrier. Not
    // cancellable — only fire-and-forget message deliveries take this
    // path (timers and timeouts are always owner-scheduled, same shard).
    Mailbox* mb = s->outbox[dst].get();
    std::lock_guard<std::mutex> lock(mb->mu);
    mb->events.push_back(std::move(ev));
    return kInvalidEventId;
  }
  // Driver context (between runs, or the coordinator's merged driver
  // loop): exclusive access to every queue, push directly.
  assert(t >= now());
  ev.origin = in_driver_phase_ ? coord_origin_ : kDriverHost;
  ev.origin_seq = NextSeqFor(ev.origin);
  if (owner == kDriverHost) {
    return Tagged(kDriverTag, driver_queue_.Push(std::move(ev)));
  }
  Shard* s = shards_[ShardOf(owner)].get();
  return Tagged(s->index, s->queue.Push(std::move(ev)));
}

bool ShardedExecutor::Cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  uint32_t tag = static_cast<uint32_t>(id & kTagMask);
  EventId handle = id >> kTagBits;
  if (tag == kDriverTag) {
    assert(tls_exec != this);  // driver events cancel from driver context
    return driver_queue_.Cancel(handle);
  }
  if (tag >= nshards_) return false;  // never issued by this executor
  // Only the owning shard's thread, or exclusive driver context, may
  // touch that shard's queue.
  assert(tls_exec != this || tls_shard_idx == tag);
  return shards_[tag]->queue.Cancel(handle);
}

void ShardedExecutor::WorkerLoop(Shard* shard) {
  tls_exec = this;
  tls_shard_idx = shard->index;
  uint64_t seen_gen = 0;
  std::unique_lock<std::mutex> lock(epoch_mu_);
  for (;;) {
    epoch_cv_.wait(lock,
                   [&] { return shutdown_ || epoch_gen_ != seen_gen; });
    if (shutdown_) return;
    seen_gen = epoch_gen_;
    SimTime bound = epoch_bound_;
    lock.unlock();
    RunShardEpoch(shard, bound);
    lock.lock();
    if (++workers_done_ == nshards_) done_cv_.notify_one();
  }
}

void ShardedExecutor::RunShardEpoch(Shard* shard, SimTime bound) {
  detail::CanonicalEvent ev;
  while (shard->queue.PopUpTo(bound, &ev)) {
    shard->clock = ev.time;
    shard->current_origin = ev.owner;
    ++shard->executed;
    ev.fn();
    ev.fn = nullptr;  // release captured state before the next pop
  }
  shard->current_origin = kDriverHost;
}

void ShardedExecutor::DrainMailboxes(SimTime window_end) {
  (void)window_end;
  for (auto& src : shards_) {
    for (uint32_t d = 0; d < nshards_; ++d) {
      Mailbox* mb = src->outbox[d].get();
      std::lock_guard<std::mutex> lock(mb->mu);
      for (auto& ev : mb->events) {
        // The conservative-lookahead contract: nothing sent inside a
        // window may land inside it. A failure here means the configured
        // lookahead exceeds some cross-host delay.
        assert(ev.time > window_end);
        shards_[d]->queue.Push(std::move(ev));
      }
      mb->events.clear();
    }
  }
  std::lock_guard<std::mutex> lock(driver_inbox_.mu);
  for (auto& ev : driver_inbox_.events) {
    driver_queue_.Push(std::move(ev));
  }
  driver_inbox_.events.clear();
}

size_t ShardedExecutor::RunEpoch(SimTime bound, bool driver_due) {
  uint64_t before = driver_executed_;
  for (const auto& shard : shards_) before += shard->executed;

  // Parallel phase: every shard drains its queue up to the bound. With a
  // driver event due at the bound, the shards stop short of that instant:
  // host events sharing its time may sort on either side of it (a
  // driver-origin event scheduled after it sorts after it), so the merged
  // loop runs the whole instant.
  if (!driver_due || bound > 0) {
    std::unique_lock<std::mutex> lock(epoch_mu_);
    epoch_bound_ = driver_due ? bound - 1 : bound;
    workers_done_ = 0;
    ++epoch_gen_;
    epoch_cv_.notify_all();
    done_cv_.wait(lock, [&] { return workers_done_ == nshards_; });
  }
  DrainMailboxes(bound);

  // Merged driver loop: any driver events due in this window run now, with
  // the workers parked — plus the host events of their instant and whatever
  // they spawn back inside the window (zero-delay joins, crash cleanup), in
  // global canonical order, exactly as SerialExecutor interleaves them.
  in_driver_phase_ = true;
  for (;;) {
    detail::CanonicalQueue* best = nullptr;
    const detail::QueueKey* best_key = nullptr;
    auto consider = [&](detail::CanonicalQueue* q) {
      const detail::QueueKey* k = q->Peek();
      if (k == nullptr || k->time > bound) return;
      if (best_key == nullptr || detail::CanonicalLater{}(*best_key, *k)) {
        best = q;
        best_key = k;
      }
    };
    consider(&driver_queue_);
    for (auto& shard : shards_) consider(&shard->queue);
    if (best == nullptr) break;
    detail::CanonicalEvent ev = best->PopTop();
    driver_clock_ = ev.time;
    coord_origin_ = ev.owner;
    ++driver_executed_;
    ev.fn();
  }
  coord_origin_ = kDriverHost;
  in_driver_phase_ = false;

  uint64_t after = driver_executed_;
  for (const auto& shard : shards_) after += shard->executed;
  return static_cast<size_t>(after - before);
}

size_t ShardedExecutor::RunCore(SimTime t_limit, size_t limit) {
  size_t total = 0;
  while (total < limit) {
    // Between epochs every mailbox is drained, so the queues alone hold
    // the frontier.
    bool any = false;
    SimTime e_min = 0;
    auto update = [&](detail::CanonicalQueue& q) {
      SimTime t;
      if (q.PeekTime(&t) && (!any || t < e_min)) {
        e_min = t;
        any = true;
      }
    };
    update(driver_queue_);
    for (auto& shard : shards_) update(shard->queue);
    if (!any || e_min > t_limit) break;

    // Window end (inclusive): the lookahead-aligned boundary past e_min,
    // cut at the run limit and at the next driver event (which needs the
    // workers parked).
    SimTime bound = (e_min / lookahead_ + 1) * lookahead_ - 1;
    if (t_limit < bound) bound = t_limit;
    SimTime t_driver;
    bool driver_due =
        driver_queue_.PeekTime(&t_driver) && t_driver <= bound;
    if (driver_due) bound = t_driver;
    total += RunEpoch(bound, driver_due);
  }
  return total;
}

size_t ShardedExecutor::Run(size_t limit) {
  size_t n = RunCore(UINT64_MAX, limit);
  // Settle the global clock on the last executed event, like the serial
  // backends' run-to-quiescence.
  SimTime m = horizon_;
  for (const auto& shard : shards_) {
    if (shard->clock > m) m = shard->clock;
  }
  if (driver_clock_ > m) m = driver_clock_;
  horizon_ = m;
  return n;
}

size_t ShardedExecutor::RunUntil(SimTime t) {
  assert(t >= horizon_);
  size_t n = RunCore(t, SIZE_MAX);
  horizon_ = t;
  driver_clock_ = t;
  for (auto& shard : shards_) {
    if (shard->clock < t) shard->clock = t;
  }
  return n;
}

size_t ShardedExecutor::pending() const {
  size_t n = driver_queue_.pending();
  for (const auto& shard : shards_) n += shard->queue.pending();
  return n;
}

uint64_t ShardedExecutor::events_executed() const {
  uint64_t n = driver_executed_;
  for (const auto& shard : shards_) n += shard->executed;
  return n;
}

}  // namespace pierstack::sim
