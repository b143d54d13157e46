#include "analysis/sweep.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace comptx::analysis {

namespace {

/// Decides one system by reduction.  A verdict carries no serial
/// witness, so the reduction alone decides it (Theorem 1).
SweepVerdict DecideOne(const CompositeSystem& cs,
                       const ReductionOptions& options) {
  SweepVerdict verdict;
  auto result = RunReduction(cs, options);
  if (!result.ok()) {
    verdict.status_message = result.status().ToString();
    return verdict;
  }
  verdict.ok = true;
  verdict.comp_c = result->comp_c;
  verdict.order = result->order;
  verdict.failure = std::move(result->failure);
  return verdict;
}

}  // namespace

std::vector<SweepVerdict> SweepCompC(
    const std::vector<const CompositeSystem*>& systems,
    const ReductionOptions& options, const SweepHooks& hooks,
    const std::vector<bool>& expected) {
  std::vector<SweepVerdict> verdicts = ParallelMap<SweepVerdict>(
      systems.size(), [&](size_t i) { return DecideOne(*systems[i], options); });
  for (size_t i = 0; i < verdicts.size(); ++i) {
    if (hooks.on_verdict) hooks.on_verdict(i, verdicts[i]);
    if (!hooks.on_disagreement) continue;
    if (!verdicts[i].ok) {
      hooks.on_disagreement(
          i, StrCat("check failed: ", verdicts[i].status_message));
    } else if (i < expected.size() && verdicts[i].comp_c != expected[i]) {
      hooks.on_disagreement(
          i, StrCat("expected ", expected[i] ? "correct" : "incorrect",
                    ", batch says ",
                    verdicts[i].comp_c ? "correct" : "incorrect"));
    }
  }
  return verdicts;
}

StatusOr<std::vector<bool>> BatchPrefixVerdicts(
    const std::vector<workload::TraceEvent>& events,
    const ReductionOptions& options) {
  const size_t n = events.size();
  ReductionOptions prefix_options = options;
  prefix_options.validate = false;

  // One chunk per pool thread (capped at n): each extra chunk costs a full
  // prefix replay, so oversubscribing buys nothing here.
  const size_t chunk_count =
      std::max<size_t>(1, std::min(n, ThreadPool::Global().ThreadCount()));
  const size_t chunk_size = (n + chunk_count - 1) / chunk_count;

  // Byte-per-verdict scratch: vector<bool> packs 64 elements per word, so
  // two chunks writing distinct indices would still race on the same word.
  std::vector<unsigned char> scratch(n, 0);
  std::vector<Status> chunk_status(chunk_count);
  ThreadPool::Global().ParallelFor(chunk_count, [&](size_t c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(n, begin + chunk_size);
    if (begin >= end) return;
    CompositeSystem mirror;
    for (size_t i = 0; i < end; ++i) {
      if (Status applied = workload::ApplyTraceEvent(mirror, events[i]);
          !applied.ok()) {
        chunk_status[c] = Status::InvalidArgument(
            StrCat("event ", i + 1, " failed to apply: ",
                   applied.ToString()));
        return;
      }
      if (i < begin) continue;  // silent replay of the chunk's prefix.
      auto result = CheckCompC(mirror, prefix_options);
      if (!result.ok()) {
        chunk_status[c] = result.status();
        return;
      }
      scratch[i] = result->correct ? 1 : 0;
    }
  });
  for (const Status& status : chunk_status) {
    if (!status.ok()) return status;
  }
  return std::vector<bool>(scratch.begin(), scratch.end());
}

}  // namespace comptx::analysis
