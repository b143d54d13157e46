#include "testing/shrink.h"

#include <algorithm>
#include <map>
#include <utility>

#include "testing/events.h"
#include "workload/event_schema.h"

namespace comptx::testing {

using workload::TraceEvent;
using workload::TraceEventKind;

namespace {

class Shrinker {
 public:
  Shrinker(std::vector<TraceEvent> events, const FailurePredicate& fails,
           const ShrinkOptions& options)
      : fails_(fails), options_(options), current_(std::move(events)) {
    stats_.initial_events = current_.size();
  }

  StatusOr<std::vector<TraceEvent>> Run() {
    {
      auto system = BuildSystem(current_);
      ++stats_.predicate_calls;
      if (!system.ok() || !fails_(*system)) {
        return Status::InvalidArgument(
            "shrink input does not exhibit the failure");
      }
    }
    bool changed = true;
    while (changed && stats_.rounds < options_.max_rounds && !Exhausted()) {
      ++stats_.rounds;
      changed = false;
      changed |= RootPass();
      changed |= ChunkPass();
      changed |= PairPass();
      changed |= SingleEventPass();
    }
    // The result is 1-minimal iff a full single-event sweep just ran to
    // completion without dropping anything (the last iteration of the loop
    // above ends with exactly that when changed == false).
    stats_.one_minimal = !changed && !Exhausted();
    stats_.final_events = current_.size();
    return std::move(current_);
  }

  const ShrinkStats& stats() const { return stats_; }

 private:
  bool Exhausted() const {
    return stats_.predicate_calls >= options_.max_predicate_calls;
  }

  /// Filters `current_` through `keep`; adopts the candidate iff it is
  /// strictly smaller, still builds, and still fails.
  bool Try(const std::vector<bool>& keep) {
    if (Exhausted()) return false;
    std::vector<TraceEvent> candidate = FilterEvents(current_, keep);
    if (candidate.size() >= current_.size()) return false;
    // Never shrink to the empty trace: an empty witness cannot be stored
    // or replayed, and "the empty input fails" only happens for verdict-
    // polarity bugs where the 1-event core is the meaningful minimum.
    if (candidate.empty()) return false;
    auto system = BuildSystem(candidate);
    if (!system.ok()) return false;
    ++stats_.predicate_calls;
    if (!fails_(*system)) return false;
    current_ = std::move(candidate);
    ++stats_.accepted_steps;
    return true;
  }

  bool TryDropRange(size_t begin, size_t end) {
    std::vector<bool> keep(current_.size(), true);
    for (size_t i = begin; i < end && i < keep.size(); ++i) keep[i] = false;
    return Try(keep);
  }

  bool TryDropSet(const std::vector<size_t>& indices) {
    std::vector<bool> keep(current_.size(), true);
    for (size_t i : indices) {
      if (i < keep.size()) keep[i] = false;
    }
    return Try(keep);
  }

  /// Drops whole root transactions, largest-index first.  Dropping a root
  /// event takes its entire subtree and every incident edge with it, so
  /// this pass does most of the semantic shrinking.
  bool RootPass() {
    bool changed = false;
    // Descending stream positions: dependency closure only ever removes
    // events *after* the dropped one, so earlier positions stay valid.
    for (size_t i = current_.size(); i-- > 0;) {
      if (i >= current_.size()) i = current_.size() - 1;
      if (current_[i].kind != TraceEventKind::kRoot) continue;
      if (TryDropRange(i, i + 1)) changed = true;
    }
    return changed;
  }

  /// ddmin-style: drop contiguous chunks of halving sizes.
  bool ChunkPass() {
    bool changed = false;
    for (size_t size = (current_.size() + 1) / 2; size >= 2; size /= 2) {
      size_t pos = 0;
      while (pos < current_.size()) {
        if (TryDropRange(pos, pos + size)) {
          changed = true;  // events shifted down; retry the same position
        } else {
          pos += size;
        }
      }
    }
    return changed;
  }

  /// Groups edge events by their (unordered) operation pair and tries to
  /// drop each group whole: Def 3.1 ties a conflict to the output order
  /// covering it, so neither is droppable alone.
  bool PairPass() {
    bool changed = true;
    bool any = false;
    while (changed && !Exhausted()) {
      changed = false;
      std::map<std::pair<uint32_t, uint32_t>, std::vector<size_t>> groups;
      for (size_t i = 0; i < current_.size(); ++i) {
        // An edge event's pair is its last two node references (an
        // intra order's first names the enclosing transaction).
        uint32_t pair[3];
        size_t nodes = 0;
        workload::ForEachRef(current_[i], workload::FieldRole::kNode,
                             [&](uint32_t node) { pair[nodes++] = node; });
        if (nodes < 2) continue;
        const uint32_t a = pair[nodes - 2];
        const uint32_t b = pair[nodes - 1];
        groups[{std::min(a, b), std::max(a, b)}].push_back(i);
      }
      for (const auto& [pair, indices] : groups) {
        if (indices.size() < 2) continue;  // single events: SingleEventPass
        if (TryDropSet(indices)) {
          changed = true;
          any = true;
          break;  // indices are stale after an accepted drop; regroup
        }
      }
    }
    return any;
  }

  /// Drops events one at a time (descending) until a full sweep drops
  /// nothing — 1-minimality at event granularity.
  bool SingleEventPass() {
    bool any = false;
    bool changed = true;
    while (changed && !Exhausted()) {
      changed = false;
      for (size_t i = current_.size(); i-- > 0;) {
        if (i >= current_.size()) i = current_.size() - 1;
        if (TryDropRange(i, i + 1)) {
          changed = true;
          any = true;
        }
      }
    }
    return any;
  }

  const FailurePredicate& fails_;
  const ShrinkOptions options_;
  std::vector<TraceEvent> current_;
  ShrinkStats stats_;
};

}  // namespace

StatusOr<std::vector<TraceEvent>> ShrinkEvents(
    std::vector<TraceEvent> events, const FailurePredicate& still_fails,
    const ShrinkOptions& options, ShrinkStats* stats) {
  Shrinker shrinker(std::move(events), still_fails, options);
  auto result = shrinker.Run();
  if (stats != nullptr) *stats = shrinker.stats();
  return result;
}

}  // namespace comptx::testing
