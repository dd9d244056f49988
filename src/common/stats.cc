#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pierstack {

void Summary::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Summary::AddN(double x, size_t n) {
  for (size_t i = 0; i < n; ++i) Add(x);
}

double Summary::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Summary::min() const {
  assert(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  assert(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  double m = mean();
  double ss = 0.0;
  for (double x : samples_) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(samples_.size() - 1));
}

void Summary::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Summary::Percentile(double p) const {
  assert(!samples_.empty());
  assert(p >= 0.0 && p <= 100.0);
  EnsureSorted();
  if (samples_.size() == 1) return samples_[0];
  double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> samples) {
  std::vector<CdfPoint> cdf;
  if (samples.empty()) return cdf;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  for (size_t i = 0; i < n; ++i) {
    // Collapse runs of equal values to their final cumulative fraction.
    if (i + 1 < n && samples[i + 1] == samples[i]) continue;
    cdf.push_back({samples[i], static_cast<double>(i + 1) /
                                   static_cast<double>(n)});
  }
  return cdf;
}

double FractionAtOrBelow(const std::vector<double>& samples,
                         double threshold) {
  if (samples.empty()) return 0.0;
  size_t c = 0;
  for (double x : samples) {
    if (x <= threshold) ++c;
  }
  return static_cast<double>(c) / static_cast<double>(samples.size());
}

LogHistogram::LogHistogram(double base) : base_(base) {
  assert(base > 1.0);
}

void LogHistogram::Add(double x) {
  int idx;
  if (x <= 0.0) {
    idx = -2;
  } else if (x <= 1.0) {
    idx = -1;
  } else {
    idx = static_cast<int>(std::ceil(std::log(x) / std::log(base_) - 1e-12));
  }
  ++counts_[idx];
  ++total_;
}

std::vector<LogHistogram::Bucket> LogHistogram::buckets() const {
  std::vector<Bucket> out;
  for (const auto& [idx, count] : counts_) {
    Bucket b;
    if (idx == -2) {
      b.lo = 0.0;
      b.hi = 0.0;
    } else if (idx == -1) {
      b.lo = 1.0;
      b.hi = 1.0;
    } else {
      b.lo = std::pow(base_, idx - 1);
      b.hi = std::pow(base_, idx);
    }
    b.count = count;
    out.push_back(b);
  }
  return out;
}

std::vector<std::pair<double, double>> MeanByGroup(
    const std::vector<std::pair<double, double>>& xy) {
  std::map<double, std::pair<double, size_t>> groups;
  for (const auto& [x, y] : xy) {
    auto& [sum, n] = groups[x];
    sum += y;
    ++n;
  }
  std::vector<std::pair<double, double>> out;
  out.reserve(groups.size());
  for (const auto& [x, acc] : groups) {
    out.emplace_back(x, acc.first / static_cast<double>(acc.second));
  }
  return out;
}

void CounterSet::Set(const std::string& name, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[name] = value;
}

uint64_t CounterSet::Value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second;
}

bool CounterSet::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(name) > 0;
}

const std::map<std::string, uint64_t>& CounterSet::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

}  // namespace pierstack
