#ifndef COMPTX_BENCH_HARNESS_H_
#define COMPTX_BENCH_HARNESS_H_

// The one way a bench times a row and reports it.  Every timed value is
// kRepeats passes (TimeUs, Repeat, or RunPasses when a pass yields
// several values), summarized by nearest-rank median and quartiles, and
// every bench writes its BENCH_*.json through WriteReport, which stamps
// the git SHA, hardware_concurrency and the pass count.  A row that
// checks an oracle carries its mismatch count (Json::Mismatches), like
// YCSB's checking workloads; WriteReport sums them into the document, so
// a bench exits non-zero on any.  No flags, no environment variables: a
// JSON is comparable to any other.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace comptx::bench {

using Clock = std::chrono::steady_clock;

/// Passes behind every timed row.
inline constexpr size_t kRepeats = 5;

/// TimeUs repeats its operation until a pass lasts at least this long.
inline constexpr Clock::duration kMinPassTime = std::chrono::milliseconds(20);

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Compiler barrier: the optimizer must assume `value` is read, so the
/// work that produced it cannot be dropped.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

/// Order statistics of one row's per-pass samples.
struct Stats {
  size_t n = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

/// The nearest-rank q-quantile of ascending `sorted` (non-empty): the
/// sample of 1-based rank ceil(q * n), at least rank 1.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

inline Stats Summarize(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  return {samples.size(), NearestRank(samples, 0.5),
          NearestRank(samples, 0.25), NearestRank(samples, 0.75)};
}

/// One field of every pass, summarized.
template <typename P>
Stats Summarize(const std::vector<P>& passes, double P::*field) {
  std::vector<double> samples;
  for (const P& pass : passes) samples.push_back(pass.*field);
  return Summarize(std::move(samples));
}

/// Calls `pass` kRepeats times and keeps every result.
template <typename Pass>
auto RunPasses(Pass&& pass) {
  std::vector<std::invoke_result_t<Pass&>> results;
  for (size_t r = 0; r < kRepeats; ++r) results.push_back(pass());
  return results;
}

/// Runs `pass` kRepeats times; each call returns one sample.
template <typename Pass>
Stats Repeat(Pass&& pass) {
  return Summarize(RunPasses(pass));
}

/// Microseconds per call of `op`: each of kRepeats passes calls it back to
/// back until kMinPassTime has elapsed and contributes the mean.
template <typename Op>
Stats TimeUs(Op&& op) {
  return Repeat([&op] {
    size_t calls = 0;
    const Clock::time_point start = Clock::now();
    do {
      op();
      ++calls;
    } while (Clock::now() - start < kMinPassTime);
    return MicrosSince(start) / static_cast<double>(calls);
  });
}

/// The checked-out commit ("-dirty" when the tree has local changes),
/// when run from a git work tree; "unknown" otherwise.
inline std::string GitSha() {
  std::string sha;
  if (FILE* pipe =
          popen("git describe --always --dirty --abbrev=40 2>/dev/null", "r")) {
    char buf[80] = {};
    if (fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// The commit a bench run measures, read when the run starts.  Construct
/// one first thing in main and pass it to WriteReport, which reads the SHA
/// again: a tree edited or restored during the run would otherwise stamp
/// the report with code the run did not measure.
struct RunStart {
  std::string git_sha = GitSha();
};

/// One JSON object, fields in insertion order.  Nested objects and rows
/// render on one line; a top-level row list puts each row on its own.
class Json {
 public:
  Json& Set(std::string_view key, bool value) {
    return Put(key, value ? "true" : "false");
  }
  Json& Set(std::string_view key, const char* value) {
    return Set(key, std::string_view(value));
  }
  Json& Set(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Put(key, quoted + "\"");
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  Json& Set(std::string_view key, T value) {
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) return Put(key, "null");
    }
    std::ostringstream out;
    out << value;
    return Put(key, out.str());
  }
  /// {"median", "q1", "q3", "n"}.
  Json& Set(std::string_view key, const Stats& stats) {
    return Set(key, Json()
                        .Set("median", stats.median)
                        .Set("q1", stats.q1)
                        .Set("q3", stats.q3)
                        .Set("n", stats.n));
  }
  Json& Set(std::string_view key, const Json& object) {
    mismatches_ += object.mismatches_;
    return Put(key, object.Render(false));
  }
  Json& Set(std::string_view key, const std::vector<Json>& rows) {
    Field field{std::string(key), "", true, {}};
    for (const Json& row : rows) {
      mismatches_ += row.mismatches_;
      field.rows.push_back(row.Render(false));
    }
    fields_.push_back(std::move(field));
    return *this;
  }

  /// This row's disagreements with its oracle (0 when it agrees).
  Json& Mismatches(size_t count) {
    mismatches_ += count;
    return Set("mismatches", count);
  }
  /// Mismatches of this object and everything nested in it.
  size_t mismatches() const { return mismatches_; }

  /// Appends `other`'s fields, and counts its mismatches, here.
  Json& Merge(const Json& other) {
    fields_.insert(fields_.end(), other.fields_.begin(), other.fields_.end());
    mismatches_ += other.mismatches_;
    return *this;
  }

  std::string Render(bool top_level) const {
    const char* sep = top_level ? ",\n  " : ", ";
    std::string out = top_level ? "{\n  " : "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      const Field& f = fields_[i];
      if (i > 0) out += sep;
      out += "\"" + f.key + "\": ";
      if (!f.is_rows) {
        out += f.value;
        continue;
      }
      out += top_level ? "[\n    " : "[";
      for (size_t r = 0; r < f.rows.size(); ++r) {
        if (r > 0) out += top_level ? ",\n    " : ", ";
        out += f.rows[r];
      }
      out += top_level ? "\n  ]" : "]";
    }
    return out + (top_level ? "\n}\n" : "}");
  }

 private:
  struct Field {
    std::string key;
    std::string value;
    bool is_rows = false;
    std::vector<std::string> rows;
  };

  Json& Put(std::string_view key, std::string value) {
    fields_.push_back({std::string(key), std::move(value), false, {}});
    return *this;
  }

  std::vector<Field> fields_;
  size_t mismatches_ = 0;
};

/// Appends `row` to `rows`, echoing it to stdout as progress.
inline void AddRow(std::vector<Json>& rows, Json row) {
  std::cout << row.Render(false) << std::endl;
  rows.push_back(std::move(row));
}

/// Writes `experiment`'s BENCH document to `path`: the experiment name,
/// git SHA, hardware_concurrency, kRepeats and the summed row mismatches,
/// then `fields`.  Returns the bench's exit code: 0, or 1 if the SHA
/// changed since `start` (nothing is written), the file cannot be
/// written or any row disagrees with its oracle.
inline int WriteReport(const RunStart& start, const std::string& path,
                       std::string_view experiment, const Json& fields) {
  const std::string sha = GitSha();
  if (sha != start.git_sha) {
    std::cerr << "not writing " << path << ": git_sha was " << start.git_sha
              << " when the run started and is " << sha << " now\n";
    return 1;
  }
  Json doc;
  doc.Set("experiment", experiment)
      .Set("git_sha", sha)
      .Set("hardware_concurrency", std::thread::hardware_concurrency())
      .Set("repeats", kRepeats)
      .Set("mismatches", fields.mismatches())
      .Merge(fields);
  std::ofstream out(path);
  out << doc.Render(true);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << " (mismatches " << doc.mismatches()
            << ")\n";
  return doc.mismatches() == 0 ? 0 : 1;
}

}  // namespace comptx::bench

#endif  // COMPTX_BENCH_HARNESS_H_
