#include "sim/executor.h"

#include <cassert>
#include <cstdlib>

#include "sim/shard.h"

namespace pierstack::sim {
namespace detail {

void CanonicalQueue::Push(CanonicalEvent ev) {
  if (ev.id != kInvalidEventId) live_ids_.insert(ev.id);
  heap_.push(std::move(ev));
  ++live_;
}

void CanonicalQueue::SkipCancelled() {
  while (!heap_.empty()) {
    EventId id = heap_.top().id;
    if (id == kInvalidEventId || live_ids_.count(id) != 0) return;
    heap_.pop();
  }
}

bool CanonicalQueue::PopUpTo(SimTime bound, CanonicalEvent* out) {
  SkipCancelled();
  if (heap_.empty() || heap_.top().time > bound) return false;
  *out = PopTop();
  return true;
}

const CanonicalEvent* CanonicalQueue::Peek() {
  SkipCancelled();
  return heap_.empty() ? nullptr : &heap_.top();
}

CanonicalEvent CanonicalQueue::PopTop() {
  // The container element is not actually const; moving the closure out
  // before pop avoids a per-event std::function copy. The comparator only
  // reads the trivially-copied key fields, which a move leaves intact.
  CanonicalEvent ev = std::move(const_cast<CanonicalEvent&>(heap_.top()));
  heap_.pop();
  if (ev.id != kInvalidEventId) live_ids_.erase(ev.id);
  --live_;
  return ev;
}

bool CanonicalQueue::PeekTime(SimTime* t) {
  SkipCancelled();
  if (heap_.empty()) return false;
  *t = heap_.top().time;
  return true;
}

bool CanonicalQueue::Cancel(EventId id) {
  // Lazy deletion: forget the id; its heap entry is skipped when popped.
  if (id == kInvalidEventId || live_ids_.erase(id) == 0) return false;
  --live_;
  return true;
}

}  // namespace detail

EventId SerialExecutor::ScheduleAt(HostId owner, SimTime t,
                                   std::function<void()> fn) {
  assert(t >= now_);
  EventId id = next_id_++;
  detail::CanonicalEvent ev;
  ev.time = t;
  ev.origin = current_origin_;
  ev.origin_seq = origin_seq_[current_origin_]++;
  ev.owner = owner;
  ev.id = id;
  ev.fn = std::move(fn);
  queue_.Push(std::move(ev));
  return id;
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
