#ifndef COMPTX_WORKLOAD_EVENT_STREAMS_H_
#define COMPTX_WORKLOAD_EVENT_STREAMS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ids.h"
#include "workload/trace.h"

namespace comptx::workload {

/// Interleaves cumulative commit_through watermarks into `events`: after
/// every `window` roots, a watermark sealing them goes in at the earliest
/// position where no later event names a node of their subtrees.  Sealing
/// any earlier would make a certifier reject those later events as
/// belonging to a committed root's pruned subtree.  A trace written by
/// SaveTrace lists relation events after all creations, so the safe
/// positions trail the root creations; the watermarks still seal every
/// covered root.  `window` 0 returns `events` unchanged.
std::vector<TraceEvent> InterleaveWatermarks(std::vector<TraceEvent> events,
                                             size_t window);

/// The streaming-window chain, the long-lived-session shape of DESIGN.md
/// §13: roots forever on one schedule "S", each with one leaf that
/// conflicts with, and is weak-output-ordered after, its predecessor's
/// leaf.  Every `window` roots, once more than `window` exist, a
/// commit_through watermark seals all but the newest `window`; by then
/// the newest sealed root's only forward relation is ingested, so sealing
/// never rejects a later event.  `window` 0 emits no watermarks.
class WindowChain {
 public:
  explicit WindowChain(uint32_t window) : window_(window) {}

  /// Appends the next root's events to `out` (the first call also emits
  /// the schedule): root, leaf, then conflict and weak_out from the
  /// previous leaf, then the watermark when one is due.
  void NextRoot(std::vector<TraceEvent>& out);

 private:
  const uint32_t window_;
  uint64_t roots_ = 0;
  uint32_t next_id_ = 0;
  uint32_t prev_leaf_ = kInvalidIndex;
};

}  // namespace comptx::workload

#endif  // COMPTX_WORKLOAD_EVENT_STREAMS_H_
