// Statistics the benchmark reports: exact order statistics over raw
// samples, and self time per span name from an in-memory span log.
//
// Percentiles come from the raw nanosecond samples, never from histogram
// buckets, and a percentile is reportable only when at least
// kMinSamplesBeyond samples lie strictly above its rank — otherwise the
// "p99" of a 50-sample run would be its maximum dressed up as a tail
// estimate.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank position (1-based) of quantile q in n samples: the
/// smallest rank r with r >= q * n.  q is clamped to [0, 1].
inline size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double exact = q * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// A percentile read off sorted samples, with how many samples lie
/// beyond its rank.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  bool reportable() const { return beyond >= kMinSamplesBeyond; }
};

/// Quantile q of `sorted` (ascending) by nearest rank.  The median (q =
/// 0.5) of an even-sized sample is the mean of the two middle values.
inline Percentile QuantileOfSorted(const std::vector<double>& sorted,
                                   double q) {
  Percentile p;
  p.samples = sorted.size();
  const size_t n = sorted.size();
  const size_t rank = NearestRank(n, q);
  if (rank == 0) return p;
  p.value = sorted[rank - 1];
  if (q == 0.5 && n % 2 == 0) {
    p.value = (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
  }
  p.beyond = n - rank;
  return p;
}

inline Percentile Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return QuantileOfSorted(samples, q);
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5).value;
}

/// Tracing overhead in percent from blocks alternately run with and
/// without spans: the median over adjacent (traced, untraced) pairs of
/// the untraced rate over the traced one, minus 1.  Pairing adjacent
/// blocks cancels a slow drift of the machine.  Returns false when no
/// such pair exists.
inline bool PairedOverheadPct(const std::vector<double>& rates,
                              const std::vector<bool>& traced, double& pct) {
  std::vector<double> ratios;
  for (size_t i = 0; i + 1 < rates.size() && i + 1 < traced.size(); i += 2) {
    if (traced[i] && !traced[i + 1] && rates[i] > 0) {
      ratios.push_back(rates[i + 1] / rates[i]);
    }
  }
  if (ratios.empty()) return false;
  pct = (Median(ratios) - 1) * 100;
  return true;
}

// ---- spans -------------------------------------------------------------

/// One timed interval.  `parent` is the index of the enclosing span in
/// the same log (-1 for a root); spans of one request share `request`.
struct Span {
  uint32_t name = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, and
/// a child sticking out of its parent is clipped to the parent).
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const uint64_t lo = std::max(s.start_ns, p.start_ns);
    const uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t total =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns
                                            : 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0;
    uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = total > covered ? total - covered : 0;
  }
  return self;
}

/// Total self time per span name, in nanoseconds.
inline std::map<uint32_t, uint64_t> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::map<uint32_t, uint64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
