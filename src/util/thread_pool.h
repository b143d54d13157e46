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

/// A small work-stealing thread pool for data-parallel loops over traces.
///
/// ParallelFor splits an index range into one shard per participant
/// (workers + the calling thread); each participant drains its own shard
/// front-to-back and, when empty, steals the back half of the largest
/// remaining shard.  Stealing keeps skewed workloads (one expensive
/// schedule among many cheap ones) balanced without any tuning.
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
  /// One participant's slice of the index range; guarded by its mutex so
  /// owner claims and steals cannot hand out an index twice.
  struct Shard {
    std::mutex mutex;
    size_t next = 0;
    size_t end = 0;
  };

  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    std::vector<Shard> shards;
    std::atomic<size_t> remaining{0};  // indices not yet executed
    std::atomic<size_t> active{0};     // workers currently inside the job
  };

  void WorkerLoop(size_t worker_index);
  /// Drains `job` (own shard first, then steals); decrements
  /// job.remaining per executed index.
  void Participate(Job& job, size_t shard_index);

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
