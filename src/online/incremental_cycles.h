#ifndef COMPTX_ONLINE_INCREMENTAL_CYCLES_H_
#define COMPTX_ONLINE_INCREMENTAL_CYCLES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/ids.h"
#include "core/relation.h"
#include "util/slot_pool.h"

namespace comptx::online {

/// LiveRelation::AddClosing's copies of the endpoint spans.  Owned by the
/// caller and reused across calls, so the steady state allocates nothing
/// and relations that never close (the front engine's) carry no buffers.
struct ClosingScratch {
  std::vector<uint32_t> sources;  // {a} ∪ pred(a)
  std::vector<uint32_t> targets;  // {b} ∪ succ(b)
};

/// A prunable relation: a core Relation plus its converse, so both the
/// successors and the predecessors of a node are sorted spans and every
/// pair incident to a node can be removed.  This is the online engine's
/// one adjacency substrate — the certifier's per-kind order closures,
/// observed orders, strong pairs and the edges of IncrementalCycleGraph —
/// on the same dense rows the batch engine uses.  Iteration is in
/// ascending id order.
class LiveRelation {
 public:
  /// Adds (a, b); returns true if new.
  bool Add(NodeId a, NodeId b) {
    if (!fwd_.Add(a, b)) return false;
    rev_.Add(b, a);
    return true;
  }

  /// Adds the generating pair (a, b) to a transitively closed relation and
  /// appends every newly closed pair to `new_pairs`: the new pairs are
  /// ({a} ∪ pred(a)) × ({b} ∪ succ(b)) minus those already present.  Kept
  /// closed this way the relation equals core ClosureWithin of its
  /// generators (in particular, a node is closed to itself only when it
  /// lies on a cycle).
  void AddClosing(NodeId a, NodeId b, ClosingScratch& scratch,
                  std::vector<std::pair<NodeId, NodeId>>& new_pairs);

  bool Contains(NodeId a, NodeId b) const { return fwd_.Contains(a, b); }
  size_t PairCount() const { return fwd_.PairCount(); }

  /// Successor / predecessor ids of `id` in ascending order.  Spans are
  /// invalidated by any mutation.
  std::span<const uint32_t> Successors(NodeId id) const {
    return fwd_.SuccessorIds(id);
  }
  std::span<const uint32_t> Predecessors(NodeId id) const {
    return rev_.SuccessorIds(id);
  }

  /// True iff some pair (x, id) exists with `!inside(x)`.
  template <typename Inside>
  bool HasPredecessorOutside(NodeId id, const Inside& inside) const {
    for (uint32_t x : Predecessors(id)) {
      if (!inside(NodeId(x))) return true;
    }
    return false;
  }

  /// Invokes f(a, b) for every pair, in (a, b) lexicographic order.
  template <typename F>
  void ForEach(F f) const {
    fwd_.ForEach(f);
  }

  /// Drops every pair with `id` as an endpoint.
  void RemoveNode(NodeId id);

 private:
  Relation fwd_;
  Relation rev_;  // converse of fwd_
};

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
/// Vertices are identified by NodeId; unknown endpoints are created on
/// first use and appended at the end of the order.  Vertex records live
/// in a SlotPool (util/slot_pool.h): a removed vertex frees its slot for
/// the next one, and DropBefore releases the pool's id directory below
/// the oldest live id, so a long session costs 4 bytes per id of its live
/// window per graph and allocates nothing in the steady state.  Edges are
/// a LiveRelation, so the Reorder walks visit neighbours in ascending id
/// order and witnesses do not depend on hash order.  The
/// structure is *sticky* on failure: the first edge that closes a cycle
/// records a witness and freezes the topological order, but later edges
/// are still recorded so that adjacency (and hence pruning
/// bookkeeping) stays complete.  A failed structure only becomes clean
/// again by rebuilding it from scratch, which is what the certifier does
/// when schedule levels shift.
///
/// Allocation discipline: the Reorder pass marks visited vertices with a
/// monotone stamp stored inline in each Vertex and accumulates its
/// frontier in member scratch vectors, so a reorder performs no per-call
/// heap allocation (the scratch keeps its high-water capacity across
/// calls).  Vertex references are invalidated by any vertex creation.
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
  bool Contains(NodeId id) const {
    return vertices_.Find(id.index()) != nullptr;
  }

  /// True iff some inserted edge closed a cycle.
  bool has_cycle() const { return cycle_; }

  /// When has_cycle(): a node sequence [v0, ..., vk] where each
  /// consecutive pair is an edge and vk -> v0 closes the cycle (the same
  /// contract as graph::FindCycle).  Empty otherwise.
  const std::vector<NodeId>& cycle_witness() const { return witness_; }

  size_t NodeCount() const { return vertices_.size(); }
  size_t EdgeCount() const { return edges_.PairCount(); }

  /// True iff `id` has an in-edge whose source x has `!inside(x)`.
  /// Pruning removes whole sealed subtrees at once, so in-edges between
  /// members of the removed set don't pin the subtree down, and a sealed
  /// vertex with no other in-edge can never join a future cycle.
  template <typename Inside>
  bool HasInEdgeFromOutside(NodeId id, const Inside& inside) const {
    return edges_.HasPredecessorOutside(id, inside);
  }

  /// Removes `id` and every incident edge.  Intended for vertices whose
  /// in-degree is 0 (pruning); safe for any vertex, but removing a
  /// vertex with in-edges changes which cycles are detectable afterwards.
  void RemoveNode(NodeId id);

  /// Releases the vertex directory below `id`.  Every vertex below `id`
  /// must have been removed; ids below it are never used again.
  void DropBefore(uint32_t id) { vertices_.DropBefore(id); }

  /// Position of `id` in the maintained topological order; meaningful only
  /// while acyclic.  Unknown vertices sort last.
  uint64_t OrderKey(NodeId id) const;

 private:
  struct Vertex {
    uint64_t ord = 0;
    // Reorder scratch, inline so visited-set membership is one stamp
    // compare instead of a hash probe (and zero allocation).
    uint64_t fwd_stamp = 0;
    uint64_t bwd_stamp = 0;
    NodeId parent{};
  };

  Vertex& Ensure(NodeId id);
  Vertex& At(NodeId id) { return *vertices_.Find(id.index()); }

  /// Restores the topological order after inserting a -> b with
  /// ord[b] < ord[a].  Returns false iff a cycle was found (witness_ set).
  bool Reorder(NodeId a, NodeId b);

  SlotPool<Vertex> vertices_;
  LiveRelation edges_;
  uint64_t next_ord_ = 0;
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
