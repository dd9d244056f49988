// perfbench_driver: runs one benchmark workload for one seed and prints its
// metrics as JSON on the last line of stdout.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-dir <dir>]
//
// Untraced (--trace 0): repeats the seeded workload ("reps") until
// --seconds of wall time are spent, at least three times, and reports the
// end-to-end metrics — wall-clock ones as medians over the reps after the
// first, in reference seconds (wall seconds scaled by the HostGauge of the
// rep, so that a host slowed by other tenants reads about the same as an
// idle one),
// simulated-clock ones from the first rep, after checking that every rep
// reproduced them bit for bit. Traced (--trace 1): two untraced
// reps (a warm-up, then the baseline for trace.overhead_s), then reps on
// the timing executor with spans until --seconds, reporting the per-layer
// metrics (medians over traced reps) and writing the Chrome trace of the
// last rep plus a per-span summary into --trace-dir. Layers a workload does
// not exercise are left out (run.py reports them as 0).
//
// Exit codes: 0 when every answer was right and every determinism check
// held; 1 otherwise (the JSON line is still printed); 2 on a usage error or
// a non-Release build.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 50;

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

bool KnownWorkload(const std::string& w) {
  return w == "search_join" || w == "hybrid_flood" || w == "dht_churn" ||
         w == "dht_churn_sharded";
}

Rep RunWorkload(const Args& a, bool first, Tracing* tr) {
  if (a.workload == "search_join") return RunSearchJoin(a.seed, tr);
  if (a.workload == "hybrid_flood") return RunHybridFlood(a.seed, tr);
  uint32_t shards = a.workload == "dht_churn_sharded" ? 2 : 1;
  return RunDhtChurn(a.seed, shards, /*check_oracle=*/first, tr);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename F>
double MedianOver(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return Median(v);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SetupSeconds(const Rep& r) {
  return r.setup_trace_s + r.setup_build_s + r.setup_settle_s;
}

double MeasuredSeconds(const Rep& r) {
  return r.publish_wall_s + r.query_wall_s;
}

double ReferenceSetupSeconds(const Rep& r) {
  return ReferenceSeconds(SetupSeconds(r), r.probe_exponent,
                          {&r.publish_gauge, &r.query_gauge});
}

/// Mean probe time of a rep, in microseconds.
double ProbeUs(const Rep& r) {
  uint64_t n = r.publish_gauge.samples() + r.query_gauge.samples();
  double sum_s = r.publish_gauge.sum_s() + r.query_gauge.sum_s();
  return n > 0 ? 1e6 * sum_s / static_cast<double>(n) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) || !KnownWorkload(args.workload)) {
    std::fprintf(stderr,
                 "usage: %s --workload search_join|hybrid_flood|dht_churn|"
                 "dht_churn_sharded --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to measure a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::printf("build: type=%s compiler=\"%s\" flags=\"%s\"\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS);

  double start = WallSeconds();
  double deadline = start + args.seconds;
  std::vector<Rep> reps;    // untraced
  std::vector<Rep> traced;  // traced
  Tracing last_trace;
  if (!args.trace) {
    do {
      reps.push_back(RunWorkload(args, reps.empty(), nullptr));
    } while ((reps.size() < kMinReps || WallSeconds() < deadline) &&
             reps.size() < kMaxReps);
  } else {
    // Two untraced reps: a warm-up, then the baseline for trace.overhead_s.
    reps.push_back(RunWorkload(args, true, nullptr));
    reps.push_back(RunWorkload(args, false, nullptr));
    do {
      Tracing tr;
      traced.push_back(RunWorkload(args, false, &tr));
      last_trace.spans = std::move(tr.spans);
    } while (WallSeconds() < deadline && traced.size() < kMaxReps);
  }

  // --- Correctness: answers, oracle, determinism ---------------------------
  bool correct = true;
  std::vector<Rep> all = reps;
  all.insert(all.end(), traced.begin(), traced.end());
  for (const Rep& r : all) {
    if (r.wrong > 0) {
      correct = false;
      std::printf("WRONG ANSWER: %s (%llu wrong)\n", r.first_error.c_str(),
                  static_cast<unsigned long long>(r.wrong));
      break;
    }
  }
  const Rep& first = reps.front();
  if (first.oracle_checked && !first.oracle_clean) {
    correct = false;
    std::printf("RING ORACLE VIOLATION: %s\n", first.oracle_detail.c_str());
  }
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i].fingerprint != first.fingerprint) {
      correct = false;
      std::printf("NONDETERMINISM: rep %zu diverged from rep 0 under seed "
                  "%llu\n",
                  i, static_cast<unsigned long long>(args.seed));
    }
  }
  if (args.workload == "dht_churn_sharded") {
    // The sharded backend must reproduce the serial canonical run exactly.
    Rep serial = RunDhtChurn(args.seed, 1, /*check_oracle=*/false, nullptr);
    if (serial.fingerprint != first.fingerprint) {
      correct = false;
      std::printf("NONDETERMINISM: sharded run diverged from the serial "
                  "dht_churn run under seed %llu\n",
                  static_cast<unsigned long long>(args.seed));
    }
  }

  // --- Metrics -------------------------------------------------------------
  std::map<std::string, double> m;
  if (!args.trace) {
    // Wall-clock figures skip the first rep, which warms the heap. Each is
    // the median over the warm reps, in reference seconds; every rep does
    // the same work, so a rep the gauge misjudged cannot pull the median.
    std::vector<Rep> warm(reps.begin() + 1, reps.end());
    auto publish_rate = [](const Rep& r) {
      return static_cast<double>(r.published) /
             ReferenceSeconds(r.publish_wall_s, r.probe_exponent,
                              {&r.publish_gauge});
    };
    auto query_rate = [](const Rep& r) {
      return static_cast<double>(r.queries) /
             ReferenceSeconds(r.query_wall_s, r.probe_exponent,
                              {&r.query_gauge});
    };
    m["setup_s"] = MedianOver(warm, ReferenceSetupSeconds);
    m["publish_files_per_s"] = MedianOver(warm, publish_rate);
    m["queries_per_s"] = MedianOver(warm, query_rate);
    std::printf(
        "unscaled wall: setup %.4f s, %.1f files/s, %.1f queries/s; "
        "probe %.2f us (reference %.2f us)\n",
        MedianOver(warm, SetupSeconds),
        MedianOver(warm,
                   [](const Rep& r) { return r.published / r.publish_wall_s; }),
        MedianOver(warm,
                   [](const Rep& r) { return r.queries / r.query_wall_s; }),
        MedianOver(warm, ProbeUs), kReferenceProbeSeconds * 1e6);
    m["peak_rss_mb"] = PeakRssMb();
    m["query_p50_ms"] = Percentile(first.latency_ms, 50);
    m["query_p99_ms"] = Percentile(first.latency_ms, 99);
    m["recall"] = first.recall_den > 0 ? first.recall_num / first.recall_den
                                       : 0;
    m["bytes_per_query"] = static_cast<double>(first.query_bytes) /
                           static_cast<double>(first.queries);
    m["bytes_per_publish"] = static_cast<double>(first.publish_bytes) /
                             static_cast<double>(first.published);
  } else {
    std::map<std::string, std::vector<double>> layer;
    for (const Rep& r : traced) {
      for (const auto& [k, v] : r.layer) layer[k].push_back(v);
    }
    for (const auto& [k, v] : layer) m[k] = Median(v);
    m["setup.trace_s"] =
        MedianOver(traced, [](const Rep& r) { return r.setup_trace_s; });
    m["setup.build_s"] =
        MedianOver(traced, [](const Rep& r) { return r.setup_build_s; });
    m["setup.settle_s"] =
        MedianOver(traced, [](const Rep& r) { return r.setup_settle_s; });
    m["trace.overhead_s"] =
        MedianOver(traced, MeasuredSeconds) - MeasuredSeconds(reps.back());
    m["trace.spans"] = static_cast<double>(last_trace.spans.spans());
    m["host.probe_us"] = MedianOver(traced, ProbeUs);
    std::string base = args.trace_dir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed);
    if (!last_trace.spans.WriteChromeTrace(base + ".trace.json")) {
      std::fprintf(stderr, "cannot write %s.trace.json\n", base.c_str());
    }
    if (FILE* f = std::fopen((base + ".summary.txt").c_str(), "w")) {
      std::fprintf(f, "%-32s %-10s %10s %14s %12s\n", "span", "layer", "count",
                   "total_us", "mean_us");
      for (const auto& [name, st] : last_trace.spans.Summary()) {
        std::fprintf(f, "%-32s %-10s %10llu %14.1f %12.2f\n", name.c_str(),
                     st.layer.c_str(),
                     static_cast<unsigned long long>(st.count), st.total_us,
                     st.mean_us());
      }
      for (const auto& [k, v] : m) {
        std::fprintf(f, "%-40s %.9g\n", k.c_str(), v);
      }
      std::fclose(f);
    }
  }

  for (size_t i = 0; i < all.size(); ++i) {
    const Rep& r = all[i];
    std::printf("rep %zu%s: setup %.4f s, publish %.4f s (%llu), query "
                "%.4f s (%llu), probe %.2f us\n",
                i, i >= reps.size() ? " (traced)" : "", SetupSeconds(r),
                r.publish_wall_s, static_cast<unsigned long long>(r.published),
                r.query_wall_s, static_cast<unsigned long long>(r.queries),
                ProbeUs(r));
  }
  uint64_t attempted = 0, failed = 0;
  for (const Rep& r : all) {
    attempted += r.attempted;
    failed += r.failed;
  }
  std::printf("reps: %zu untraced, %zu traced, %.2f s wall\n", reps.size(),
              traced.size(), WallSeconds() - start);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool comma = false;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", comma ? ", " : "", k.c_str(), v);
    comma = true;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
