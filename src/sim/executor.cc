#include "sim/executor.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sim/shard.h"

namespace pierstack::sim {
namespace detail {

EventId CanonicalQueue::Push(CanonicalEvent ev) {
  uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    // The slot index must fit its handle field; a check in every build.
    if (slots_.size() == kMaxSlots) {
      std::fprintf(stderr, "sim::CanonicalQueue: more than %u events held\n",
                   kMaxSlots);
      std::abort();
    }
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(ev.fn);
  slot.owner = ev.owner;
  slot.live = true;
  heap_.push(QueueKey{ev.time, ev.origin, index, ev.origin_seq});
  ++live_;
  return (EventId{slot.generation} << kSlotBits) | index;
}

void CanonicalQueue::Free(uint32_t index) {
  Slot& slot = slots_[index];
  // Destroyed on return, after the bookkeeping: a captured object's
  // destructor may schedule, which may grow slots_.
  std::function<void()> dead = std::move(slot.fn);
  slot.live = false;
  // Any handle to the old occupant stops matching; 0 is skipped so that no
  // handle is ever kInvalidEventId.
  if (++slot.generation == 0) slot.generation = 1;
  free_slots_.push_back(index);
}

void CanonicalQueue::SkipCancelled() {
  while (!heap_.empty()) {
    uint32_t index = heap_.top().slot;
    if (slots_[index].live) return;
    heap_.pop();
    Free(index);
  }
}

bool CanonicalQueue::PopUpTo(SimTime bound, CanonicalEvent* out) {
  SkipCancelled();
  if (heap_.empty() || heap_.top().time > bound) return false;
  *out = PopTop();
  return true;
}

const QueueKey* CanonicalQueue::Peek() {
  SkipCancelled();
  return heap_.empty() ? nullptr : &heap_.top();
}

CanonicalEvent CanonicalQueue::PopTop() {
  const QueueKey& key = heap_.top();
  Slot& slot = slots_[key.slot];
  CanonicalEvent ev;
  ev.time = key.time;
  ev.origin_seq = key.origin_seq;
  ev.origin = key.origin;
  ev.owner = slot.owner;
  // The closure leaves its slot before it runs: a handler that schedules may
  // grow slots_ and move every slot.
  ev.fn = std::move(slot.fn);
  uint32_t index = key.slot;
  heap_.pop();
  Free(index);
  --live_;
  return ev;
}

bool CanonicalQueue::PeekTime(SimTime* t) {
  SkipCancelled();
  if (heap_.empty()) return false;
  *t = heap_.top().time;
  return true;
}

bool CanonicalQueue::Cancel(EventId handle) {
  uint64_t index = handle & (kMaxSlots - 1);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.live || (handle >> kSlotBits) != slot.generation) return false;
  // Lazy deletion: the key stays queued and frees the slot when it surfaces.
  slot.live = false;
  --live_;
  return true;
}

}  // namespace detail

EventId SerialExecutor::ScheduleAt(HostId owner, SimTime t,
                                   std::function<void()> fn) {
  assert(t >= now_);
  uint64_t seq = current_origin_ == kDriverHost
                     ? driver_seq_++
                     : detail::NextOriginSeq(&origin_seq_, current_origin_);
  return queue_.Push({t, seq, current_origin_, owner, std::move(fn)});
}

bool SerialExecutor::Cancel(EventId id) { return queue_.Cancel(id); }

bool SerialExecutor::RunOne(SimTime bound) {
  detail::CanonicalEvent ev;
  if (!queue_.PopUpTo(bound, &ev)) return false;
  now_ = ev.time;
  current_origin_ = ev.owner;
  ++executed_;
  ev.fn();
  current_origin_ = kDriverHost;
  return true;
}

size_t SerialExecutor::Run(size_t limit) {
  size_t n = 0;
  while (n < limit && RunOne(SIZE_MAX)) ++n;
  return n;
}

size_t SerialExecutor::RunUntil(SimTime t) {
  size_t n = 0;
  while (RunOne(t)) ++n;
  if (now_ < t) now_ = t;
  return n;
}

std::unique_ptr<Executor> MakeEnvExecutor(SimTime lookahead) {
  const char* env = std::getenv("PIERSTACK_SHARDS");
  long shards = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
  if (shards > 1 && lookahead > 0) {
    ShardedExecutor::Options opts;
    opts.shards = static_cast<uint32_t>(shards);
    opts.lookahead = lookahead;
    return std::make_unique<ShardedExecutor>(opts);
  }
  return std::make_unique<SerialExecutor>();
}

}  // namespace pierstack::sim
