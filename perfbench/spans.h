// In-memory span recorder for the traced benchmark run.
//
// A span covers one public call the driver makes into a layer (a Search,
// a Get, a PublishFiles) or one setup stage. Spans are recorded with
// steady_clock by one thread at a time: the driver's, or — for calls made
// from the client node's events on the sharded backend — the one worker
// that owns that node, while the driver waits in Run. The executor's
// barriers order the two, so the recorder takes no locks (the traced
// sharded run is ThreadSanitizer-clean). Nothing is written until the run
// ends: then
// WriteChromeTrace emits Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto) and Summary folds the spans per name.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// Opens a span; returns its id for End. `parent` is the enclosing span's
  /// id (0 = none).
  uint32_t Begin(const char* layer, const char* name, uint32_t parent = 0);
  void End(uint32_t id);

  struct NameStats {
    std::string layer;
    uint64_t count = 0;
    double total_us = 0;
    double mean_us() const { return count ? total_us / count : 0; }
  };
  /// Per-span-name totals of every closed span.
  const std::map<std::string, NameStats>& Summary() const { return summary_; }
  size_t spans() const { return spans_.size(); }

  /// Writes the closed spans as Chrome trace-event JSON. Returns false on
  /// an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    const char* name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;  ///< index = id - 1
  std::map<std::string, NameStats> summary_;
};

/// Scope guard recording one span on a possibly-null recorder (null = the
/// untraced run, where spans cost one branch).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* layer, const char* name,
             uint32_t parent = 0)
      : rec_(rec), id_(rec ? rec->Begin(layer, name, parent) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

}  // namespace perfbench
