// Shared plumbing for the repo benchmark driver: clocks, CPU accounting,
// the in-memory span log, and the per-run result record.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

inline double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// User + system CPU seconds of this process, all threads.
inline double SelfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return TimevalSeconds(ru.ru_utime) + TimevalSeconds(ru.ru_stime);
}

/// Peak resident set of this process in MB (ru_maxrss is in KiB on Linux).
inline double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One measured metric value and its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run of one workload produced.  `attempted` counts operations
/// (requests, checks, topology drives); `failed` counts refused requests
/// and verdict mismatches.  `info` holds diagnostic fields that are
/// printed but never gated (sample counts, spread inside the run).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;
  std::vector<std::string> errors;  // first few failure descriptions

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// In-memory span log: spans are appended while the traced run works and
/// written out once at the end, so recording costs a vector push.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// In alternating mode Flip() switches recording on and off, so a
  /// traced run can time its blocks with and without spans and compare.
  void set_alternating(bool on) { alternating_ = on; }
  bool alternating() const { return alternating_; }
  void Flip() {
    if (alternating_) enabled_ = !enabled_;
  }

  /// Opens a span; returns its index (or -1 while disabled).
  int64_t Begin(const std::string& name, int64_t parent, uint64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.name = Intern(name);
    s.start_ns = NowNs();
    s.parent = parent;
    s.request = request;
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  /// Self time per span name, in seconds.
  std::map<std::string, double> SelfSeconds() const {
    std::map<std::string, double> out;
    for (const auto& [id, ns] : SelfTimeByName(spans_)) {
      out[names_[id]] = static_cast<double>(ns) / 1e9;
    }
    return out;
  }

  /// One JSON object per line: name, start/end (ns), parent, request.
  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << names_[s.name] << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  uint32_t Intern(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const uint32_t id = static_cast<uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
  }

  bool enabled_;
  bool alternating_ = false;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int64_t parent = -1,
             uint64_t request = 0)
      : log_(log), index_(log.Begin(name, parent, request)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanLog& log_;
  int64_t index_;
};

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;  // comptx_serve built next to the driver
  std::string run_dir;       // fresh scratch dir for this run
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
