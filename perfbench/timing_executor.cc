#include "timing_executor.h"

#include <chrono>

namespace perfbench {

using pierstack::sim::EventId;
using pierstack::sim::HostId;
using pierstack::sim::kDriverHost;
using pierstack::sim::kInvalidEventId;
using pierstack::sim::SimTime;
using Clock = std::chrono::steady_clock;

TimingExecutor::TimingExecutor(
    std::unique_ptr<pierstack::sim::Executor> inner)
    : inner_(std::move(inner)), slabs_(inner_->shard_count() + 1) {}

void TimingExecutor::SetHostClass(HostId host, HostClass cls) {
  if (host >= host_class_.size()) host_class_.resize(host + 1, kClassDht);
  host_class_[host] = cls;
}

HostClass TimingExecutor::ClassOf(HostId host) const {
  if (host == kDriverHost) return kClassDriver;
  return host < host_class_.size() ? host_class_[host] : kClassDht;
}

void TimingExecutor::NotePending(int64_t delta) {
  int64_t now = pending_.fetch_add(delta, std::memory_order_relaxed) + delta;
  int64_t seen = pending_max_.load(std::memory_order_relaxed);
  while (now > seen && !pending_max_.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
}

EventId TimingExecutor::ScheduleAt(HostId owner, SimTime t,
                                   std::function<void()> fn) {
  schedules_.fetch_add(1, std::memory_order_relaxed);
  NotePending(1);
  HostClass cls = ClassOf(owner);
  return inner_->ScheduleAt(owner, t, [this, cls, fn = std::move(fn)]() {
    Clock::time_point start = Clock::now();
    fn();
    double dt = std::chrono::duration<double>(Clock::now() - start).count();
    Slab& slab = slabs_[inner_->CurrentSlab()];
    slab.handler_s[cls] += dt;
    pending_.fetch_sub(1, std::memory_order_relaxed);
  });
}

bool TimingExecutor::Cancel(EventId id) {
  if (id == kInvalidEventId || !inner_->Cancel(id)) return false;
  cancels_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

size_t TimingExecutor::Run(size_t limit) {
  Clock::time_point start = Clock::now();
  size_t n = inner_->Run(limit);
  run_wall_s_ += std::chrono::duration<double>(Clock::now() - start).count();
  return n;
}

size_t TimingExecutor::RunUntil(SimTime t) {
  Clock::time_point start = Clock::now();
  size_t n = inner_->RunUntil(t);
  run_wall_s_ += std::chrono::duration<double>(Clock::now() - start).count();
  return n;
}

TimingExecutor::Totals TimingExecutor::totals() const {
  Totals out;
  for (const Slab& s : slabs_) {
    for (int c = 0; c < kNumHostClasses; ++c) {
      out.handler_s[c] += s.handler_s[c];
    }
  }
  out.run_wall_s = run_wall_s_;
  out.schedules = schedules_.load(std::memory_order_relaxed);
  out.cancels = cancels_.load(std::memory_order_relaxed);
  int64_t peak = pending_max_.load(std::memory_order_relaxed);
  out.pending_max = peak > 0 ? static_cast<uint64_t>(peak) : 0;
  return out;
}

}  // namespace perfbench
