// Self-tests of the benchmark's own arithmetic: exact percentiles, the
// "enough samples beyond" rule, span self time, the paired tracing
// overhead and the rescaling to nominal machine speed.  Plain asserts that
// survive NDEBUG; exit status 0 iff every check passed.
//
// Build and run through `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "yardstick.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++g_failures;                                               \
    }                                                             \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::Percentile;
using perfbench::Quantile;
using perfbench::Span;

void TestNearestRank() {
  EXPECT(perfbench::NearestRank(0, 0.5) == 0);
  EXPECT(perfbench::NearestRank(1, 0.5) == 1);
  EXPECT(perfbench::NearestRank(100, 0.99) == 99);
  EXPECT(perfbench::NearestRank(100, 0.5) == 50);
  EXPECT(perfbench::NearestRank(101, 0.5) == 51);
  EXPECT(perfbench::NearestRank(10, 0.0) == 1);
  EXPECT(perfbench::NearestRank(10, 1.0) == 10);
}

void TestMedian() {
  EXPECT(Near(perfbench::Median({3, 1, 2}), 2));
  EXPECT(Near(perfbench::Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(perfbench::Median({7}), 7));
}

void TestPercentileIsExact() {
  // 1..1000 shuffled-ish: the p99 is exactly 990 with 10 samples beyond.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const Percentile p99 = Quantile(v, 0.99);
  EXPECT(Near(p99.value, 990));
  EXPECT(p99.samples == 1000);
  EXPECT(p99.beyond == 10);
  EXPECT(p99.reportable());
  // One sample fewer and the p99 is no longer supported.
  v.pop_back();
  const Percentile short_p99 = Quantile(v, 0.99);
  EXPECT(short_p99.beyond == 9);
  EXPECT(!short_p99.reportable());
  // A median needs 20 samples to have 10 beyond it.
  std::vector<double> nineteen(19, 1.0);
  EXPECT(!Quantile(nineteen, 0.5).reportable());
  nineteen.push_back(2.0);
  EXPECT(Quantile(nineteen, 0.5).reportable());
}

void TestSelfTime() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: cover
  // [10,50) = 40) and a grandchild [12,18) under the first child.
  std::vector<Span> spans = {
      {0, 0, 100, -1, 1},
      {1, 10, 30, 0, 1},
      {1, 20, 50, 0, 1},
      {2, 12, 18, 1, 1},
  };
  const std::vector<uint64_t> self = perfbench::SelfTimes(spans);
  EXPECT(self[0] == 60);
  EXPECT(self[1] == 14);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 6);
  const auto by_name = perfbench::SelfTimeByName(spans);
  EXPECT(by_name.at(0) == 60);
  EXPECT(by_name.at(1) == 44);
  EXPECT(by_name.at(2) == 6);
  // Without overlapping siblings, self times add up to the root's
  // duration.
  const std::vector<Span> tree = {
      {0, 0, 100, -1, 1}, {1, 10, 30, 0, 1}, {1, 40, 70, 0, 1},
      {2, 12, 18, 1, 1}};
  uint64_t total = 0;
  for (uint64_t s : perfbench::SelfTimes(tree)) total += s;
  EXPECT(total == 100);
}

void TestSelfTimeClipsChildren() {
  // A child sticking out of its parent only covers the overlap; a child
  // of a zero-length span covers nothing.
  std::vector<Span> spans = {
      {0, 100, 200, -1, 1},
      {1, 150, 260, 0, 1},
      {2, 50, 50, -1, 2},
  };
  const std::vector<uint64_t> self = perfbench::SelfTimes(spans);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 110);
  EXPECT(self[2] == 0);
}

void TestPairedOverhead() {
  // Pairs (traced, untraced): 100 -> 110, 200 -> 200, 50 -> 60.  Ratios
  // 1.1, 1.0, 1.2; the median is 1.1, so the overhead is 10%.  A trailing
  // traced block without its partner is ignored.
  double pct = 0;
  EXPECT(perfbench::PairedOverheadPct({100, 110, 200, 200, 50, 60, 70},
                                      {true, false, true, false, true, false,
                                       true},
                                      pct));
  EXPECT(Near(pct, 10));
  // A pair out of phase (untraced first) is not a pair.
  EXPECT(!perfbench::PairedOverheadPct({100, 110}, {false, true}, pct));
  EXPECT(!perfbench::PairedOverheadPct({100}, {true}, pct));
}

void TestAtNominalSpeed() {
  using perfbench::AtNominalSpeed;
  using perfbench::Scale;
  // A machine at half the nominal speed (wall factor 0.5) doubles wall
  // times and halves rates; reported at nominal speed they read as on a
  // machine twice as fast.  CPU times use their own factor; counts and
  // sizes do not move.
  EXPECT(Near(AtNominalSpeed(10, Scale::kWallTime, 0.5, 0.25), 5));
  EXPECT(Near(AtNominalSpeed(10, Scale::kCpuTime, 0.5, 0.25), 2.5));
  EXPECT(Near(AtNominalSpeed(10, Scale::kRate, 0.5, 0.25), 20));
  EXPECT(Near(AtNominalSpeed(10, Scale::kNone, 0.5, 0.25), 10));
}

void TestYardstickFactors() {
  perfbench::Yardstick yard;
  // No pass yet: no rescaling.
  EXPECT(yard.passes() == 0);
  EXPECT(Near(yard.WallFactor(), 1));
  EXPECT(Near(yard.CpuFactor(), 1));
  yard.Sample(3);
  EXPECT(yard.passes() == 3);
  EXPECT(yard.WallFactor() > 0);
  EXPECT(yard.CpuFactor() > 0);
  EXPECT(yard.cpu_seconds() > 0);
  // An empty range of passes does not rescale either.
  EXPECT(Near(yard.WallFactor(3), 1));
  EXPECT(Near(yard.CpuFactor(2, 2), 1));
  // A range past the end is clipped to the passes taken.
  EXPECT(Near(yard.WallFactor(0, 99), yard.WallFactor()));
}

}  // namespace

int main() {
  TestNearestRank();
  TestMedian();
  TestPercentileIsExact();
  TestSelfTime();
  TestSelfTimeClipsChildren();
  TestPairedOverhead();
  TestAtNominalSpeed();
  TestYardstickFactors();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
