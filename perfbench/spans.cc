#include "spans.h"

#include <cstdio>

namespace perfbench {

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

uint32_t SpanRecorder::Begin(const char* layer, const char* name,
                             uint32_t parent) {
  spans_.push_back(Span{layer, name, parent, NowNs(), -1});
  return static_cast<uint32_t>(spans_.size());
}

void SpanRecorder::End(uint32_t id) {
  Span& s = spans_[id - 1];
  s.end_ns = NowNs();
  NameStats& st = summary_[s.name];
  st.layer = s.layer;
  ++st.count;
  st.total_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u}}",
                 first ? "" : ",\n", s.name, s.layer, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i + 1, s.parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
