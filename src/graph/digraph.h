#ifndef COMPTX_GRAPH_DIGRAPH_H_
#define COMPTX_GRAPH_DIGRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitrow.h"

namespace comptx::graph {

/// Index of a node inside a Digraph.
using NodeIndex = uint32_t;

/// A simple directed graph over dense node indices [0, NodeCount()).
///
/// Parallel edges are collapsed (AddEdge is idempotent); self-loops are
/// allowed and are reported by HasSelfLoop().  This is the common currency
/// for all order-theoretic algorithms in the library: observed orders,
/// serialization graphs, invocation graphs and ghost graphs are all built as
/// Digraphs and analyzed with the free functions in the sibling headers.
class Digraph {
 public:
  /// Creates a graph with `node_count` isolated nodes.
  explicit Digraph(size_t node_count = 0);

  /// Adds one node and returns its index.
  NodeIndex AddNode();

  /// Adds the edge `from -> to`; both endpoints must exist.  Returns true
  /// if the edge is new, false if it was already present.
  bool AddEdge(NodeIndex from, NodeIndex to);

  /// True iff the edge `from -> to` is present.
  bool HasEdge(NodeIndex from, NodeIndex to) const;

  size_t NodeCount() const { return rows_.size(); }
  size_t EdgeCount() const { return edge_count_; }

  /// Successors of `node`, in insertion order (first insertion wins).
  /// The span is invalidated by the next AddEdge or AddNode.
  std::span<const NodeIndex> OutNeighbors(NodeIndex node) const {
    const Row& row = rows_[node];
    return {arena_.data() + row.begin, row.size};
  }

  /// True iff any node has an edge to itself.
  bool HasSelfLoop() const;

  /// Returns the graph with every edge reversed.
  Digraph Reversed() const;

  /// Merges all edges of `other` into this graph; the two graphs must have
  /// the same node count.
  void UnionWith(const Digraph& other);

 private:
  /// One node's successors: arena_[begin, begin + size), with room up to
  /// begin + capacity.
  struct Row {
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  /// Rows up to this long deduplicate AddEdge by scanning themselves;
  /// a longer row gets a membership bitset in `seen_`.
  static constexpr size_t kScanLimit = 16;

  /// Appends `to` to the row of `from`, moving the row to the arena's end
  /// with twice the room when it is full (in place when it already ends
  /// the arena, as it does while a builder adds one source's edges).
  void Append(NodeIndex from, NodeIndex to);

  std::vector<Row> rows_;
  /// Every row's successors in one buffer, so a graph allocates per
  /// buffer growth, not per node.
  std::vector<NodeIndex> arena_;
  /// Per source, the bits of a row longer than kScanLimit (empty for
  /// short rows); sized only once some row outgrows the limit, so the
  /// sparse graphs of the reduction never allocate it.
  std::vector<BitRow> seen_;
  size_t edge_count_ = 0;
};

}  // namespace comptx::graph

#endif  // COMPTX_GRAPH_DIGRAPH_H_
