#include "online/incremental_cycles.h"

#include <algorithm>

namespace comptx::online {

// ---- LiveRelation ---------------------------------------------------------

void LiveRelation::AddClosing(
    NodeId a, NodeId b, ClosingScratch& scratch,
    std::vector<std::pair<NodeId, NodeId>>& new_pairs) {
  // (a, b) already closed: any path using the new pair factors through
  // existing closed pairs, so nothing new can appear.
  if (Contains(a, b)) return;
  // Copied out: the spans are invalidated by the insertions below.
  const std::span<const uint32_t> pred = Predecessors(a);
  scratch.sources.assign(1, a.index());
  scratch.sources.insert(scratch.sources.end(), pred.begin(), pred.end());
  const std::span<const uint32_t> succ = Successors(b);
  scratch.targets.assign(1, b.index());
  scratch.targets.insert(scratch.targets.end(), succ.begin(), succ.end());
  for (uint32_t x : scratch.sources) {
    for (uint32_t y : scratch.targets) {
      const NodeId from(x), to(y);
      if (Add(from, to)) new_pairs.emplace_back(from, to);
    }
  }
}

void LiveRelation::RemoveNode(NodeId id) {
  for (uint32_t y : fwd_.SuccessorIds(id)) rev_.Remove(NodeId(y), id);
  fwd_.RemoveSource(id);
  for (uint32_t x : rev_.SuccessorIds(id)) fwd_.Remove(NodeId(x), id);
  rev_.RemoveSource(id);
}

// ---- IncrementalCycleGraph ------------------------------------------------

IncrementalCycleGraph::Vertex& IncrementalCycleGraph::Ensure(NodeId id) {
  const auto [vertex, created] = vertices_.Acquire(id.index());
  if (created) *vertex = Vertex{.ord = next_ord_++};
  return *vertex;
}

void IncrementalCycleGraph::EnsureNode(NodeId id) { Ensure(id); }

bool IncrementalCycleGraph::HasEdge(NodeId a, NodeId b) const {
  return edges_.Contains(a, b);
}

uint64_t IncrementalCycleGraph::OrderKey(NodeId id) const {
  const Vertex* vertex = vertices_.Find(id.index());
  return vertex == nullptr ? next_ord_ : vertex->ord;
}

void IncrementalCycleGraph::RemoveNode(NodeId id) {
  if (!Contains(id)) return;
  vertices_.Release(id.index());
  edges_.RemoveNode(id);
}

bool IncrementalCycleGraph::AddEdge(NodeId a, NodeId b) {
  if (edges_.Contains(a, b)) return !cycle_;
  // Ensure(b) may grow the pool, so a's record is looked up afresh below.
  Ensure(a);
  Ensure(b);
  edges_.Add(a, b);
  if (cycle_) return false;
  if (a == b) {
    cycle_ = true;
    witness_ = {a};
    return false;
  }
  if (At(a).ord < At(b).ord) return true;  // order already consistent: O(1).
  if (!Reorder(a, b)) {
    cycle_ = true;
    return false;
  }
  return true;
}

bool IncrementalCycleGraph::Reorder(NodeId a, NodeId b) {
  const uint64_t lb = At(b).ord;
  const uint64_t ub = At(a).ord;
  const uint64_t stamp = ++visit_stamp_;

  // Forward DFS from b over vertices with ord <= ub.  Reaching a means the
  // new edge a -> b closed a cycle; the DFS parents give the b ~> a path.
  forward_.clear();
  stack_.clear();
  stack_.push_back(b);
  At(b).fwd_stamp = stamp;
  while (!stack_.empty()) {
    NodeId u = stack_.back();
    stack_.pop_back();
    forward_.push_back(u);
    if (u == a) {
      // Reconstruct b ~> a; with the closing edge a -> b this is a cycle.
      witness_.clear();
      for (NodeId w = a; w != b; w = At(w).parent) {
        witness_.push_back(w);
      }
      witness_.push_back(b);
      std::reverse(witness_.begin(), witness_.end());
      return false;
    }
    for (uint32_t w : edges_.Successors(u)) {
      Vertex& vw = At(NodeId(w));
      if (vw.ord > ub) continue;
      if (vw.fwd_stamp != stamp) {
        vw.fwd_stamp = stamp;
        vw.parent = u;
        stack_.push_back(NodeId(w));
      }
    }
  }

  // Backward DFS from a over vertices with ord >= lb.  Disjoint from the
  // forward set (overlap would have been a cycle caught above).
  backward_.clear();
  stack_.push_back(a);
  At(a).bwd_stamp = stamp;
  while (!stack_.empty()) {
    NodeId u = stack_.back();
    stack_.pop_back();
    backward_.push_back(u);
    for (uint32_t w : edges_.Predecessors(u)) {
      Vertex& vw = At(NodeId(w));
      if (vw.ord < lb) continue;
      if (vw.bwd_stamp != stamp) {
        vw.bwd_stamp = stamp;
        stack_.push_back(NodeId(w));
      }
    }
  }

  // Reassign: the affected vertices keep their relative order within each
  // set, but every backward (≼ a) vertex now sorts before every forward
  // (≽ b) vertex, reusing the same pool of order keys.
  auto by_ord = [this](NodeId x, NodeId y) {
    return At(x).ord < At(y).ord;
  };
  std::sort(backward_.begin(), backward_.end(), by_ord);
  std::sort(forward_.begin(), forward_.end(), by_ord);

  pool_.clear();
  for (NodeId x : backward_) pool_.push_back(At(x).ord);
  for (NodeId x : forward_) pool_.push_back(At(x).ord);
  std::sort(pool_.begin(), pool_.end());

  size_t slot = 0;
  for (NodeId x : backward_) At(x).ord = pool_[slot++];
  for (NodeId x : forward_) At(x).ord = pool_[slot++];
  return true;
}

}  // namespace comptx::online
