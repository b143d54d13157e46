// ThreadPool: exactly-once index coverage, nesting, balance under skew,
// the global pool switch, and COMPTX_THREADS parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace comptx {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.ThreadCount(), 4u);
  for (size_t n : {0ul, 1ul, 2ul, 7ul, 64ul, 1000ul}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.ParallelFor(16, [&](size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8 * 8);
  pool.ParallelFor(8, [&](size_t i) {
    // A nested call must not deadlock waiting for the same workers; it
    // runs inline on the task that issued it.
    pool.ParallelFor(8, [&](size_t j) { hits[i * 8 + j].fetch_add(1); });
  });
  for (size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
  }
}

TEST(ThreadPool, BalancesSkewedWork) {
  // The expensive indices are all at the front of the range; claiming the
  // next unclaimed index spreads them over the participants, so the wall
  // time must be far below the serial sum.  Correctness (every index
  // exactly once) is the hard assertion; timing is not, to stay robust on
  // loaded single-core CI machines.
  ThreadPool pool(4);
  const size_t n = 64;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t i) {
    // Indices in the first quarter are 30x as expensive.
    const int spins = i < n / 4 ? 30000 : 1000;
    volatile int sink = 0;
    for (int s = 0; s < spins; ++s) sink = sink + s;
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, MoreItemsThanThreadsAndViceVersa) {
  ThreadPool pool(8);
  std::atomic<size_t> count{0};
  pool.ParallelFor(3, [&](size_t) { count.fetch_add(1); });  // n < threads
  EXPECT_EQ(count.load(), 3u);
  count = 0;
  pool.ParallelFor(1000, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000u);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(20, [&](size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 190u);
  }
}

TEST(ThreadPool, SetGlobalThreadsSwapsThePool) {
  ThreadPool::SetGlobalThreads(2);
  EXPECT_EQ(ThreadPool::Global().ThreadCount(), 2u);
  std::atomic<size_t> count{0};
  ThreadPool::Global().ParallelFor(10, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
  ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(ThreadPool::Global().ThreadCount(), 1u);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ASSERT_EQ(setenv("COMPTX_THREADS", "3", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  ASSERT_EQ(setenv("COMPTX_THREADS", "0", 1), 0);  // invalid: at least 1
  EXPECT_GE(DefaultThreadCount(), 1u);
  ASSERT_EQ(setenv("COMPTX_THREADS", "garbage", 1), 0);
  EXPECT_GE(DefaultThreadCount(), 1u);
  ASSERT_EQ(unsetenv("COMPTX_THREADS"), 0);
  EXPECT_GE(DefaultThreadCount(), 1u);
}

}  // namespace
}  // namespace comptx
