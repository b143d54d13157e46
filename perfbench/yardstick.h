// A fixed reference workload that says how fast this machine runs right
// now, so that timings taken at different times can be compared.
//
// On the shared virtual machines the benchmark runs on, the same code runs
// up to twice as fast at one moment as at another (NOTES.md, "Machine
// speed"), and CPU time does not cancel that: the vCPU itself retires
// instructions more slowly.  The yardstick is a small, fixed piece of work
// like the program's own — hash-set churn over a sliding window of keys,
// with its node allocations, dependent loads through a table larger than
// L2, and integer arithmetic — compiled from the benchmark's own sources,
// so no change to the program moves it.
//
// A workload samples it on its measuring thread between the blocks it
// times, all through the run.  At the end every gated timing is reported
// at the nominal machine speed, the speed at which one yardstick pass
// takes kNominalNs:
//
//     wall time × WallFactor(),   CPU time × CpuFactor(),
//     rate ÷ WallFactor(),
//
// where WallFactor() = kNominalNs / (median wall time of the passes) and
// CpuFactor() likewise with their thread CPU time.  The raw timings and
// both factors go on the meta line.
#ifndef PERFBENCH_YARDSTICK_H_
#define PERFBENCH_YARDSTICK_H_

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common.h"

namespace perfbench {

/// How a metric's value moves with machine speed.
enum class Scale {
  kNone,      // counts and sizes: not a timing
  kWallTime,  // wall-clock durations
  kCpuTime,   // CPU time
  kRate,      // events per wall second
};

/// `value` reported at the nominal machine speed, given the run's wall
/// and CPU factors (Yardstick::WallFactor / CpuFactor).
inline double AtNominalSpeed(double value, Scale scale, double wall_factor,
                             double cpu_factor) {
  switch (scale) {
    case Scale::kWallTime:
      return value * wall_factor;
    case Scale::kCpuTime:
      return value * cpu_factor;
    case Scale::kRate:
      return value / wall_factor;
    case Scale::kNone:
      break;
  }
  return value;
}

inline uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

class Yardstick {
 public:
  /// One pass's time on a quiet 2.1 GHz Xeon vCPU of the machine the
  /// benchmark was tuned on.  Only ratios to it matter.
  static constexpr double kNominalNs = 3.0e6;

  Yardstick() : chase_(kChaseSlots) {
    // One cycle through every slot (Sattolo's shuffle), fixed seed.
    for (uint32_t i = 0; i < kChaseSlots; ++i) chase_[i] = i;
    uint64_t x = kSeed;
    for (uint32_t i = kChaseSlots - 1; i > 0; --i) {
      x = XorShift(x);
      std::swap(chase_[i], chase_[static_cast<uint32_t>(x % i)]);
    }
    sink_ = Chase(Churn(kSeed));  // page in the table, warm the allocator
  }

  /// Runs `reps` passes and records each one's wall and thread CPU time,
  /// and the wall time of each of its parts.
  void Sample(int reps) {
    for (int i = 0; i < reps; ++i) {
      const uint64_t w0 = NowNs();
      const uint64_t c0 = ThreadCpuNs();
      uint64_t x = Churn(kSeed);
      const uint64_t w1 = NowNs();
      x = Chase(x);
      const uint64_t w2 = NowNs();
      sink_ ^= Alu(x);
      const uint64_t w3 = NowNs();
      const uint64_t c3 = ThreadCpuNs();
      wall_ns_.push_back(static_cast<double>(w3 - w0));
      cpu_ns_.push_back(static_cast<double>(c3 - c0));
      cpu_total_ns_ += static_cast<double>(c3 - c0);
      part_ns_[0].push_back(static_cast<double>(w1 - w0));
      part_ns_[1].push_back(static_cast<double>(w2 - w1));
      part_ns_[2].push_back(static_cast<double>(w3 - w2));
    }
  }

  /// Median wall time of a whole pass, in ms (0 before any pass): the
  /// run's calibration probe.
  double median_pass_ms() const {
    return wall_ns_.empty() ? 0 : Median(wall_ns_) / 1e6;
  }

  /// Median wall time of the churn, chase and ALU parts.
  double median_part_ns(size_t part) const { return Median(part_ns_[part]); }

  size_t passes() const { return wall_ns_.size(); }
  /// CPU seconds this thread spent in passes, to subtract from a CPU
  /// figure of the same process.
  double cpu_seconds() const { return cpu_total_ns_ / 1e9; }

  /// kNominalNs over the median wall (CPU) time of passes [begin, end):
  /// > 1 when the machine ran faster than nominal, < 1 when slower; 1
  /// when the range holds no pass.
  double WallFactor(size_t begin = 0, size_t end = SIZE_MAX) const {
    return FactorOf(wall_ns_, begin, end);
  }
  double CpuFactor(size_t begin = 0, size_t end = SIZE_MAX) const {
    return FactorOf(cpu_ns_, begin, end);
  }

  /// What the passes computed; kept so the compiler cannot drop them.
  uint64_t sink() const { return sink_; }

 private:
  static constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ull;
  static constexpr int kChurnOps = 24'000;
  static constexpr size_t kChurnWindow = 8'192;
  static constexpr uint32_t kChaseSlots = 1u << 21;  // 8 MiB of uint32_t
  static constexpr int kChaseSteps = 8'000;
  static constexpr int kAluSteps = 100'000;

  static double FactorOf(const std::vector<double>& ns, size_t begin,
                         size_t end) {
    end = std::min(end, ns.size());
    if (begin >= end) return 1.0;
    return kNominalNs / Median(std::vector<double>(ns.begin() + begin,
                                                   ns.begin() + end));
  }

  static uint64_t XorShift(uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  /// Hash-set inserts and erases over a sliding window of keys, with
  /// their node allocations.
  static uint64_t Churn(uint64_t x) {
    std::unordered_set<uint64_t> live;
    std::vector<uint64_t> ring(kChurnWindow, 0);
    for (int i = 0; i < kChurnOps; ++i) {
      x = XorShift(x);
      uint64_t& slot = ring[static_cast<size_t>(i) % kChurnWindow];
      if (slot != 0) live.erase(slot);
      slot = x | 1;
      live.insert(slot);
    }
    return x + live.size();
  }

  /// Dependent loads through one fixed cycle of a table larger than L2.
  uint64_t Chase(uint64_t x) const {
    uint32_t at = static_cast<uint32_t>(x) & (kChaseSlots - 1);
    for (int i = 0; i < kChaseSteps; ++i) at = chase_[at];
    return x + at;
  }

  static uint64_t Alu(uint64_t x) {
    for (int i = 0; i < kAluSteps; ++i) x = XorShift(x);
    return x;
  }

  std::vector<uint32_t> chase_;
  std::vector<double> part_ns_[3];
  std::vector<double> wall_ns_;
  std::vector<double> cpu_ns_;
  double cpu_total_ns_ = 0;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_YARDSTICK_H_
