#include "graph/digraph.h"

#include <algorithm>

#include "util/logging.h"

namespace comptx::graph {

Digraph::Digraph(size_t node_count) : rows_(node_count) {}

NodeIndex Digraph::AddNode() {
  rows_.emplace_back();
  if (!seen_.empty()) seen_.emplace_back();
  return static_cast<NodeIndex>(rows_.size() - 1);
}

bool Digraph::AddEdge(NodeIndex from, NodeIndex to) {
  COMPTX_CHECK_LT(from, rows_.size());
  COMPTX_CHECK_LT(to, rows_.size());
  const std::span<const NodeIndex> row = OutNeighbors(from);
  if (row.size() < kScanLimit) {
    if (std::find(row.begin(), row.end(), to) != row.end()) return false;
  } else {
    if (seen_.empty()) seen_.resize(rows_.size());
    BitRow& bits = seen_[from];
    if (bits.Empty()) {
      for (NodeIndex w : row) bits.TestAndSet(w);
    }
    if (!bits.TestAndSet(to)) return false;
  }
  Append(from, to);
  ++edge_count_;
  return true;
}

void Digraph::Append(NodeIndex from, NodeIndex to) {
  Row& row = rows_[from];
  if (row.size == row.capacity) {
    const uint32_t end = static_cast<uint32_t>(arena_.size());
    const uint32_t grown = std::max<uint32_t>(2, 2 * row.capacity);
    if (row.capacity > 0 && row.begin + row.capacity == end) {
      arena_.resize(size_t{end} + grown - row.capacity);
    } else {
      arena_.resize(size_t{end} + grown);
      std::copy_n(arena_.begin() + row.begin, row.size, arena_.begin() + end);
      row.begin = end;
    }
    row.capacity = grown;
  }
  arena_[row.begin + row.size++] = to;
}

bool Digraph::HasEdge(NodeIndex from, NodeIndex to) const {
  if (from >= rows_.size()) return false;
  if (from < seen_.size() && !seen_[from].Empty()) {
    return seen_[from].Test(to);
  }
  const std::span<const NodeIndex> row = OutNeighbors(from);
  return std::find(row.begin(), row.end(), to) != row.end();
}

bool Digraph::HasSelfLoop() const {
  for (NodeIndex v = 0; v < rows_.size(); ++v) {
    if (HasEdge(v, v)) return true;
  }
  return false;
}

Digraph Digraph::Reversed() const {
  Digraph r(NodeCount());
  for (NodeIndex v = 0; v < rows_.size(); ++v) {
    for (NodeIndex w : OutNeighbors(v)) r.AddEdge(w, v);
  }
  return r;
}

void Digraph::UnionWith(const Digraph& other) {
  COMPTX_CHECK_EQ(NodeCount(), other.NodeCount());
  for (NodeIndex v = 0; v < other.rows_.size(); ++v) {
    for (NodeIndex w : other.OutNeighbors(v)) AddEdge(v, w);
  }
}

}  // namespace comptx::graph
