// Descriptive statistics used by the measurement benches: running
// summaries, percentiles, empirical CDFs and log-scale histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pierstack {

/// Drop-in counter field safe for concurrent bumps from shard threads
/// (sim/shard.h). Increments are relaxed atomics: totals are exact once
/// the shards reach a barrier, and no ordering is implied between
/// counters. Implicit conversion keeps existing `uint64_t` readers and
/// arithmetic working unchanged; copies snapshot the current value, so
/// metrics structs made of RelaxedCounters stay copyable.
class RelaxedCounter {
 public:
  RelaxedCounter(uint64_t v = 0) : v_(v) {}  // NOLINT: implicit by design
  RelaxedCounter(const RelaxedCounter& o) : v_(o.value()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  operator uint64_t() const { return value(); }  // NOLINT: implicit by design
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  uint64_t operator++(int) {
    return v_.fetch_add(1, std::memory_order_relaxed);
  }
  RelaxedCounter& operator+=(uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator-=(uint64_t d) {
    v_.fetch_sub(d, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<uint64_t> v_;
};

/// Running maximum safe for concurrent updates (CAS loop, relaxed).
class RelaxedMax {
 public:
  RelaxedMax(uint64_t v = 0) : v_(v) {}  // NOLINT: implicit by design
  RelaxedMax(const RelaxedMax& o) : v_(o.value()) {}
  RelaxedMax& operator=(const RelaxedMax& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedMax& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  operator uint64_t() const { return value(); }  // NOLINT: implicit by design
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  void Update(uint64_t x) {
    uint64_t cur = v_.load(std::memory_order_relaxed);
    while (x > cur &&
           !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> v_;
};

/// Accumulates samples; computes mean/min/max/stddev/percentiles on demand.
class Summary {
 public:
  void Add(double x);
  void AddN(double x, size_t n);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;

  /// p in [0,100]; nearest-rank percentile. Requires at least one sample.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

/// Point on an empirical CDF: P(X <= x) = cum_fraction.
struct CdfPoint {
  double x;
  double cum_fraction;  // in [0, 1]
};

/// Builds the empirical CDF of `samples` evaluated at each distinct value.
std::vector<CdfPoint> EmpiricalCdf(std::vector<double> samples);

/// Fraction of samples <= threshold.
double FractionAtOrBelow(const std::vector<double>& samples, double threshold);

/// Histogram over logarithmically spaced buckets, for long-tailed data
/// (result-set sizes, replica counts).
class LogHistogram {
 public:
  /// Buckets: [0], [1], (1, b], (b, b^2], ... with the given base > 1.
  explicit LogHistogram(double base = 2.0);

  void Add(double x);

  struct Bucket {
    double lo;  // inclusive
    double hi;  // inclusive upper edge of the bucket
    size_t count;
  };
  /// Non-empty buckets in increasing order of lo.
  std::vector<Bucket> buckets() const;

  size_t total() const { return total_; }

 private:
  double base_;
  std::map<int, size_t> counts_;  // bucket index -> count
  size_t total_ = 0;
};

/// Groups (x, y) pairs by x and reports the mean y per distinct x,
/// sorted by x. Used for "Y vs X" scatter summaries like Figures 4 and 7.
std::vector<std::pair<double, double>> MeanByGroup(
    const std::vector<std::pair<double, double>>& xy);

/// Flat named-counter bag: the common currency for surfacing subsystem
/// counters (transport, DHT, PIER) to tests and reports without each layer
/// exporting its own metrics struct. Names are dotted, e.g.
/// "pier.adaptive_flushes".
///
/// Layers count concurrently in their own RelaxedCounter fields and export
/// here with Set, at a shard barrier or after the run. Set, Value and Has
/// take a mutex, so calls from several threads may overlap.
class CounterSet {
 public:
  /// Sets `name` to `value` (overwrites).
  void Set(const std::string& name, uint64_t value);

  /// Value of `name`, or 0 if it was never set.
  uint64_t Value(const std::string& name) const;

  bool Has(const std::string& name) const;

  /// All counters, sorted by name. The returned map is stable until the
  /// next Set.
  const std::map<std::string, uint64_t>& entries() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> entries_;
};

}  // namespace pierstack
