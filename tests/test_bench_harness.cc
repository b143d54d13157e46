// Tests for bench/harness.h, the one harness every bench times and
// reports through: nearest-rank order statistics, the kRepeats floor on
// timed rows, and the JSON writer's stamps and mismatch totals.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace comptx::bench {
namespace {

TEST(BenchHarnessTest, NearestRankOnAnOddSampleSet) {
  const Stats stats = Summarize({5, 1, 4, 2, 3});
  EXPECT_EQ(stats.n, 5u);
  EXPECT_EQ(stats.median, 3);  // rank ceil(2.5) = 3
  EXPECT_EQ(stats.q1, 2);      // rank ceil(1.25) = 2
  EXPECT_EQ(stats.q3, 4);      // rank ceil(3.75) = 4
}

TEST(BenchHarnessTest, NearestRankOnAnEvenSampleSet) {
  const Stats stats = Summarize({80, 10, 60, 40, 30, 70, 20, 50});
  EXPECT_EQ(stats.n, 8u);
  EXPECT_EQ(stats.median, 40);  // rank 4: the lower middle, not a mean
  EXPECT_EQ(stats.q1, 20);      // rank 2
  EXPECT_EQ(stats.q3, 60);      // rank 6
}

TEST(BenchHarnessTest, DegenerateSampleSets) {
  const Stats one = Summarize({7});
  EXPECT_EQ(one.n, 1u);
  EXPECT_EQ(one.median, 7);
  EXPECT_EQ(one.q1, 7);
  EXPECT_EQ(one.q3, 7);
  EXPECT_EQ(Summarize({}).n, 0u);
}

TEST(BenchHarnessTest, EveryTimedRowHasAtLeastFivePasses) {
  static_assert(kRepeats >= 5);
  size_t passes = 0;
  const Stats repeated = Repeat([&] { return double(++passes); });
  EXPECT_EQ(passes, kRepeats);
  EXPECT_EQ(repeated.n, kRepeats);
  EXPECT_EQ(repeated.median, 3);

  size_t calls = 0;
  const Clock::time_point start = Clock::now();
  const Stats timed = TimeUs([&] { DoNotOptimize(++calls); });
  EXPECT_EQ(timed.n, kRepeats);
  // Each pass repeats the call until it has lasted kMinPassTime.
  EXPECT_GE(Clock::now() - start, kRepeats * kMinPassTime);
  EXPECT_GT(calls, kRepeats);
  EXPECT_GT(timed.median, 0);
  EXPECT_LE(timed.q1, timed.median);
  EXPECT_LE(timed.median, timed.q3);
}

TEST(BenchHarnessTest, ReportStampsTheRunAndSumsRowMismatches) {
  std::vector<Json> rows;
  AddRow(rows, Json().Set("name", "a \"quoted\" row").Mismatches(0));
  AddRow(rows, Json().Set("us", Summarize({1, 2, 3, 4, 5})).Mismatches(2));
  const Json fields = Json().Set("ok", true).Set("rows", rows);
  EXPECT_EQ(fields.mismatches(), 2u);

  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "bench_harness.json";
  const RunStart start;
  EXPECT_EQ(WriteReport(start, path.string(), "harness_selftest", fields), 1);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  for (const char* expected :
       {"\"experiment\": \"harness_selftest\"", "\"git_sha\": \"",
        "\"hardware_concurrency\": ", "\"repeats\": 5",
        "\"mismatches\": 2,", "\"name\": \"a \\\"quoted\\\" row\"",
        "{\"median\": 3, \"q1\": 2, \"q3\": 4, \"n\": 5}", "\"ok\": true"}) {
    EXPECT_NE(json.find(expected), std::string::npos) << expected << "\n"
                                                      << json;
  }
  std::filesystem::remove(path);
  EXPECT_EQ(WriteReport(start, path.string(), "harness_selftest", Json()), 0);
  std::filesystem::remove(path);
}

TEST(BenchHarnessTest, ReportRefusesATreeThatChangedDuringTheRun) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "bench_moved.json";
  std::filesystem::remove(path);
  const RunStart start{GitSha() + "-not-this-tree"};
  EXPECT_EQ(WriteReport(start, path.string(), "harness_selftest", Json()), 1);
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace comptx::bench
