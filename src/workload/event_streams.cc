#include "workload/event_streams.h"

#include <algorithm>
#include <string>
#include <utility>

#include "workload/event_schema.h"

namespace comptx::workload {

std::vector<TraceEvent> InterleaveWatermarks(std::vector<TraceEvent> events,
                                             size_t window) {
  if (window == 0) return events;
  // Node ids are assigned in creation order, so a running counter maps
  // each creation event to its node and each node to its root ordinal.
  std::vector<size_t> node_root;   // node index -> root ordinal
  std::vector<size_t> last_touch;  // root ordinal -> last event index
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    uint32_t parent = kInvalidIndex;  // a creation's only node reference
    ForEachRef(e, FieldRole::kNode, [&](uint32_t node) {
      parent = node;
      if (node < node_root.size()) last_touch[node_root[node]] = i;
    });
    if (!CreatesNode(e.kind)) continue;
    if (e.kind == TraceEventKind::kRoot) {
      node_root.push_back(last_touch.size());
      last_touch.push_back(i);
    } else if (parent < node_root.size()) {
      // A creation under an unknown parent is rejected and creates no
      // node, so it takes no id.
      node_root.push_back(node_root[parent]);
    }
  }
  // A watermark covering the first k roots may go after the last event
  // touching any of them (prefix max of last_touch).
  std::vector<std::pair<size_t, uint64_t>> inserts;  // (after index, k)
  size_t horizon = 0;
  for (size_t k = window; k <= last_touch.size(); k += window) {
    for (size_t r = k - window; r < k; ++r) {
      horizon = std::max(horizon, last_touch[r]);
    }
    inserts.emplace_back(horizon, static_cast<uint64_t>(k));
  }
  std::vector<TraceEvent> out;
  out.reserve(events.size() + inserts.size());
  size_t next = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    out.push_back(std::move(events[i]));
    while (next < inserts.size() && inserts[next].first == i) {
      TraceEvent mark;
      mark.kind = TraceEventKind::kCommitThrough;
      mark.a = static_cast<uint32_t>(inserts[next].second);
      out.push_back(mark);
      ++next;
    }
  }
  return out;
}

void WindowChain::NextRoot(std::vector<TraceEvent>& out) {
  TraceEvent e;
  if (roots_ == 0) {
    e.kind = TraceEventKind::kSchedule;
    e.name = "S";
    out.push_back(e);
  }
  e = {};
  e.kind = TraceEventKind::kRoot;
  e.schedule = 0;
  e.name = "T" + std::to_string(roots_);
  out.push_back(e);
  const uint32_t root = next_id_++;
  e = {};
  e.kind = TraceEventKind::kLeaf;
  e.parent = root;
  e.name = "x" + std::to_string(roots_);
  out.push_back(e);
  const uint32_t leaf = next_id_++;
  if (prev_leaf_ != kInvalidIndex) {
    e = {};
    e.kind = TraceEventKind::kConflict;
    e.a = prev_leaf_;
    e.b = leaf;
    out.push_back(e);
    e.kind = TraceEventKind::kWeakOutput;
    out.push_back(e);
  }
  prev_leaf_ = leaf;
  ++roots_;
  if (window_ != 0 && roots_ % window_ == 0 && roots_ > window_) {
    e = {};
    e.kind = TraceEventKind::kCommitThrough;
    e.a = static_cast<uint32_t>(roots_ - window_);
    out.push_back(e);
  }
}

}  // namespace comptx::workload
