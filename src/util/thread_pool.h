#ifndef COMPTX_UTIL_THREAD_POOL_H_
#define COMPTX_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace comptx {

/// The number of threads comptx uses by default: the COMPTX_THREADS
/// environment variable when set to a positive integer, otherwise the
/// hardware concurrency (at least 1).  COMPTX_THREADS=1 forces every
/// cross-trace stage (sweeps, prefix checks, campaigns) onto the caller's
/// thread; a single reduction is serial at any setting.
size_t DefaultThreadCount();

/// A small thread pool for data-parallel loops over traces.
///
/// ParallelFor hands out indices from one atomic cursor: every participant
/// (workers + the calling thread) claims the next unclaimed index until the
/// range is exhausted.  Each caller's item is a whole trace or prefix chunk
/// (tens of microseconds or more), so one fetch_add per item is free, and
/// claiming in order balances skewed workloads (one expensive schedule
/// among many cheap ones) by construction.
///
/// Determinism contract: ParallelFor only guarantees that fn is invoked
/// exactly once per index.  Callers that fold results into an order-
/// sensitive structure must write into per-index slots and merge in index
/// order afterwards (see ParallelMap and SweepCompC).
///
/// Nested ParallelFor calls from inside a worker run inline on that
/// worker (no deadlock, no oversubscription).
class ThreadPool {
 public:
  /// Starts `threads - 1` workers (the calling thread is the remaining
  /// participant).  `threads` is clamped to at least 1.
  explicit ThreadPool(size_t threads = DefaultThreadCount());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total participants (workers + caller).
  size_t ThreadCount() const { return thread_count_; }

  /// Runs fn(i) for every i in [0, n), blocking until all invocations have
  /// returned.  fn must not throw.  Safe to call concurrently from
  /// multiple threads (jobs are serialized) and reentrantly from inside a
  /// worker (runs inline).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// The process-wide pool, built lazily with DefaultThreadCount()
  /// threads.  All library-internal parallel stages use this pool.
  static ThreadPool& Global();

  /// Replaces the global pool with one of `threads` threads.  Must not be
  /// called while the global pool is executing a job (benches, CLIs and
  /// tests call it between runs).
  static void SetGlobalThreads(size_t threads);

 private:
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};       // the next unclaimed index
    std::atomic<size_t> remaining{0};  // indices not yet executed
    std::atomic<size_t> active{0};     // workers currently inside the job
  };

  void WorkerLoop();
  /// Claims and runs indices of `job` until none is left; decrements
  /// job.remaining per executed index.
  void Participate(Job& job);

  size_t thread_count_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;                  // guards job_/epoch_/stop_
  std::condition_variable work_cv_;   // workers wait for a new epoch
  std::condition_variable done_cv_;   // caller waits for remaining == 0
  Job* job_ = nullptr;
  uint64_t epoch_ = 0;
  bool stop_ = false;

  std::mutex submit_mutex_;  // one ParallelFor at a time
};

}  // namespace comptx

#endif  // COMPTX_UTIL_THREAD_POOL_H_
