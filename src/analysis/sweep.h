#ifndef COMPTX_ANALYSIS_SWEEP_H_
#define COMPTX_ANALYSIS_SWEEP_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/correctness.h"
#include "util/status_or.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace comptx::analysis {

/// Runs `fn(i)` for i in [0, n) on the global pool and returns the results
/// in index order.  `R` must be default-constructible; each slot is written
/// exactly once by the task that owns it, so the result vector is identical
/// at any thread count.  `fn` must be safe to call concurrently.
template <typename R, typename Fn>
std::vector<R> ParallelMap(size_t n, const Fn& fn) {
  std::vector<R> results(n);
  ThreadPool::Global().ParallelFor(n, [&](size_t i) { results[i] = fn(i); });
  return results;
}

/// Outcome of one sweep item: either a transport error (`!ok`, message in
/// `status_message`) or a Comp-C verdict with its diagnosis.
struct SweepVerdict {
  bool ok = false;
  std::string status_message;
  bool comp_c = false;
  uint32_t order = 0;
  std::optional<ReductionFailure> failure;
};

/// Observation hooks for sweep drivers.  Callbacks are invoked on the
/// calling thread, in index order, after the parallel phase has finished —
/// so they may mutate caller state without locking and see a
/// deterministic sequence at any thread count.
struct SweepHooks {
  /// Called once per sweep item with its verdict.
  std::function<void(size_t index, const SweepVerdict& verdict)> on_verdict;

  /// Called for items whose verdict deviates from expectation: transport
  /// errors always, and — when the caller supplied `expected` to a
  /// cross-checking driver — verdict mismatches.  The differential
  /// harness (testing/campaign.h) uses this to stream disagreements as
  /// they are confirmed.
  std::function<void(size_t index, const std::string& description)>
      on_disagreement;
};

/// Decides Comp-C for every system in `systems` on the global pool.
/// Result i corresponds to systems[i]; the vector is bit-identical to a
/// serial loop over CheckCompC at any thread count (each verdict depends
/// only on its own system).  `hooks` (optional) observes the verdicts in
/// index order; on_disagreement fires for transport errors and, when
/// `expected` is non-empty (parallel to `systems`), for any verdict that
/// differs from expected[i].
std::vector<SweepVerdict> SweepCompC(
    const std::vector<const CompositeSystem*>& systems,
    const ReductionOptions& options = {}, const SweepHooks& hooks = {},
    const std::vector<bool>& expected = {});

/// Batch verdicts for every prefix of an (already accepted) event stream:
/// result i is CheckCompC(events[0..i]).correct.  The stream is cut into
/// contiguous chunks; each worker silently replays the events before its
/// chunk, then checks each prefix inside it — so the total work is
/// O(chunks * n) event applications plus the n reductions, instead of the
/// O(n^2) applications a naive per-prefix rebuild would cost.
///
/// `options.validate` is forced off (prefixes of well-formed executions
/// legitimately violate the completeness rules of Defs 3-4).  Returns an
/// error if any event fails to apply — callers should pass only events the
/// online certifier accepted.
StatusOr<std::vector<bool>> BatchPrefixVerdicts(
    const std::vector<workload::TraceEvent>& events,
    const ReductionOptions& options = {});

}  // namespace comptx::analysis

#endif  // COMPTX_ANALYSIS_SWEEP_H_
