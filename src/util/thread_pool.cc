#include "util/thread_pool.h"

#include <cstdlib>
#include <memory>


namespace comptx {

namespace {

/// True while the current thread is executing inside a pool job; nested
/// ParallelFor calls detect this and run inline.
thread_local bool t_inside_pool_job = false;

}  // namespace

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("COMPTX_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(size_t threads) : thread_count_(threads < 1 ? 1 : threads) {
  workers_.reserve(thread_count_ - 1);
  for (size_t w = 0; w + 1 < thread_count_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
      // Register under the lock: the caller cannot destroy the job while
      // any registered participant is still inside it.
      if (job != nullptr) job->active.fetch_add(1, std::memory_order_relaxed);
    }
    if (job == nullptr) continue;
    t_inside_pool_job = true;
    Participate(*job);
    t_inside_pool_job = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->active.fetch_sub(1, std::memory_order_relaxed);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::Participate(Job& job) {
  size_t executed = 0;
  for (size_t i = job.next.fetch_add(1); i < job.n;
       i = job.next.fetch_add(1)) {
    (*job.fn)(i);
    ++executed;
  }
  if (executed > 0 &&
      job.remaining.fetch_sub(executed, std::memory_order_acq_rel) ==
          executed) {
    std::lock_guard<std::mutex> lock(mutex_);
    done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || thread_count_ == 1 || t_inside_pool_job) {
    // Serial path: trivially deterministic, and the nested-call case (a
    // worker running a stage that itself fans out) must not wait on the
    // pool it is part of.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  Job job;
  job.fn = &fn;
  job.n = n;
  job.remaining.store(n, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++epoch_;
  }
  work_cv_.notify_all();

  // The caller claims indices alongside the workers.
  t_inside_pool_job = true;
  Participate(job);
  t_inside_pool_job = false;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job.remaining.load(std::memory_order_acquire) == 0 &&
             job.active.load(std::memory_order_relaxed) == 0;
    });
    job_ = nullptr;
  }
}

namespace {

std::mutex g_global_pool_mutex;
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_pool_mutex);
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultThreadCount());
  return *slot;
}

void ThreadPool::SetGlobalThreads(size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_pool_mutex);
  GlobalPoolSlot() = std::make_unique<ThreadPool>(threads < 1 ? 1 : threads);
}

}  // namespace comptx
