#ifndef COMPTX_ONLINE_INCREMENTAL_CYCLES_H_
#define COMPTX_ONLINE_INCREMENTAL_CYCLES_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/ids.h"

namespace comptx::online {

/// Dynamic acyclicity maintenance for a growing constraint digraph, using
/// incremental topological ordering (Pearce & Kelly, "A Dynamic
/// Topological Sort Algorithm for Directed Acyclic Graphs", JEA 2006).
///
/// This replaces repeated full `graph::FindCycle` runs in the online
/// Comp-C certifier: each edge insertion reorders only the affected
/// region between the endpoints, so an insertion that does not invert the
/// current topological order costs O(1) and the amortized cost stays far
/// below re-running a full DFS per event.
///
/// Vertices are identified by NodeId (sparse); unknown endpoints are
/// created on first use and appended at the end of the order.  The
/// structure is *sticky* on failure: the first edge that closes a cycle
/// records a witness and freezes the topological order, but later edges
/// are still recorded so that adjacency (and hence epoch pruning
/// bookkeeping) stays complete.  A failed structure only becomes clean
/// again by rebuilding it from scratch, which is what the certifier does
/// when schedule levels shift.
///
/// Allocation discipline: the Reorder pass marks visited vertices with a
/// monotone stamp stored inline in each Vertex and accumulates its
/// frontier in member scratch vectors, so steady-state edge insertion
/// performs no per-call heap allocation (the scratch keeps its high-water
/// capacity across calls).
class IncrementalCycleGraph {
 public:
  IncrementalCycleGraph() = default;

  /// Ensures `id` is a vertex; new vertices sort after all current ones.
  void EnsureNode(NodeId id);

  /// Adds the edge a -> b (idempotent).  Returns true while the graph is
  /// acyclic; returns false when the graph is in the failed state (either
  /// this edge closed a cycle, or a previous one did).
  bool AddEdge(NodeId a, NodeId b);

  bool HasEdge(NodeId a, NodeId b) const;
  bool Contains(NodeId id) const { return vertices_.count(id) > 0; }

  /// True iff some inserted edge closed a cycle.
  bool has_cycle() const { return cycle_; }

  /// When has_cycle(): a node sequence [v0, ..., vk] where each
  /// consecutive pair is an edge and vk -> v0 closes the cycle (the same
  /// contract as graph::FindCycle).  Empty otherwise.
  const std::vector<NodeId>& cycle_witness() const { return witness_; }

  size_t NodeCount() const { return vertices_.size(); }
  size_t EdgeCount() const { return edge_count_; }

  /// Number of in-edges of `id` (0 for unknown vertices).  Used by the
  /// certifier's epoch pruning: a sealed vertex with no in-edges can never
  /// join a future cycle.
  size_t InDegree(NodeId id) const;

  /// True iff `id` has an in-edge whose source is NOT in `inside`.  Epoch
  /// pruning removes whole sealed subtrees at once, so in-edges between
  /// members of the removed set don't pin the subtree down.
  bool HasInEdgeFromOutside(NodeId id,
                            const std::unordered_set<NodeId>& inside) const;

  /// Removes `id` and every incident edge.  Intended for vertices whose
  /// in-degree is 0 (epoch pruning); safe for any vertex, but removing a
  /// vertex with in-edges changes which cycles are detectable afterwards.
  void RemoveNode(NodeId id);

  /// Position of `id` in the maintained topological order; meaningful only
  /// while acyclic.  Unknown vertices sort last.
  uint64_t OrderKey(NodeId id) const;

 private:
  struct Vertex {
    uint64_t ord = 0;
    std::unordered_set<NodeId> out;
    std::unordered_set<NodeId> in;
    // Reorder scratch, inline so visited-set membership is one stamp
    // compare instead of a hash probe (and zero allocation).
    uint64_t fwd_stamp = 0;
    uint64_t bwd_stamp = 0;
    NodeId parent{};
  };

  Vertex& Ensure(NodeId id);

  /// Restores the topological order after inserting a -> b with
  /// ord[b] < ord[a].  Returns false iff a cycle was found (witness_ set).
  bool Reorder(NodeId a, NodeId b);

  std::unordered_map<NodeId, Vertex> vertices_;
  uint64_t next_ord_ = 0;
  size_t edge_count_ = 0;
  bool cycle_ = false;
  std::vector<NodeId> witness_;

  // Reorder scratch, reused across calls (capacity persists).
  uint64_t visit_stamp_ = 0;
  std::vector<NodeId> forward_;
  std::vector<NodeId> backward_;
  std::vector<NodeId> stack_;
  std::vector<uint64_t> pool_;
};

}  // namespace comptx::online

#endif  // COMPTX_ONLINE_INCREMENTAL_CYCLES_H_
