#include "online/incremental_cycles.h"

#include <algorithm>

namespace comptx::online {

IncrementalCycleGraph::Vertex& IncrementalCycleGraph::Ensure(NodeId id) {
  auto [it, inserted] = vertices_.try_emplace(id);
  if (inserted) it->second.ord = next_ord_++;
  return it->second;
}

void IncrementalCycleGraph::EnsureNode(NodeId id) { Ensure(id); }

bool IncrementalCycleGraph::HasEdge(NodeId a, NodeId b) const {
  auto it = vertices_.find(a);
  return it != vertices_.end() && it->second.out.count(b) > 0;
}

size_t IncrementalCycleGraph::InDegree(NodeId id) const {
  auto it = vertices_.find(id);
  return it == vertices_.end() ? 0 : it->second.in.size();
}

bool IncrementalCycleGraph::HasInEdgeFromOutside(
    NodeId id, const std::unordered_set<NodeId>& inside) const {
  auto it = vertices_.find(id);
  if (it == vertices_.end()) return false;
  for (NodeId pred : it->second.in) {
    if (inside.count(pred) == 0) return true;
  }
  return false;
}

uint64_t IncrementalCycleGraph::OrderKey(NodeId id) const {
  auto it = vertices_.find(id);
  return it == vertices_.end() ? next_ord_ : it->second.ord;
}

void IncrementalCycleGraph::RemoveNode(NodeId id) {
  auto it = vertices_.find(id);
  if (it == vertices_.end()) return;
  for (NodeId succ : it->second.out) {
    vertices_.at(succ).in.erase(id);
    --edge_count_;
  }
  for (NodeId pred : it->second.in) {
    vertices_.at(pred).out.erase(id);
    --edge_count_;
  }
  vertices_.erase(it);
}

bool IncrementalCycleGraph::AddEdge(NodeId a, NodeId b) {
  Vertex& va = Ensure(a);
  if (va.out.count(b) > 0) return !cycle_;
  if (a == b) {
    va.out.insert(b);
    va.in.insert(a);
    ++edge_count_;
    if (!cycle_) {
      cycle_ = true;
      witness_ = {a};
    }
    return false;
  }
  Vertex& vb = Ensure(b);
  va.out.insert(b);
  vb.in.insert(a);
  ++edge_count_;
  if (cycle_) return false;
  if (va.ord < vb.ord) return true;  // order already consistent: O(1).
  if (!Reorder(a, b)) {
    cycle_ = true;
    return false;
  }
  return true;
}

bool IncrementalCycleGraph::Reorder(NodeId a, NodeId b) {
  const uint64_t lb = vertices_.at(b).ord;
  const uint64_t ub = vertices_.at(a).ord;
  const uint64_t stamp = ++visit_stamp_;

  // Forward DFS from b over vertices with ord <= ub.  Reaching a means the
  // new edge a -> b closed a cycle; the DFS parents give the b ~> a path.
  forward_.clear();
  stack_.clear();
  stack_.push_back(b);
  vertices_.at(b).fwd_stamp = stamp;
  while (!stack_.empty()) {
    NodeId u = stack_.back();
    stack_.pop_back();
    forward_.push_back(u);
    if (u == a) {
      // Reconstruct b ~> a; with the closing edge a -> b this is a cycle.
      witness_.clear();
      for (NodeId w = a; w != b; w = vertices_.at(w).parent) {
        witness_.push_back(w);
      }
      witness_.push_back(b);
      std::reverse(witness_.begin(), witness_.end());
      return false;
    }
    for (NodeId w : vertices_.at(u).out) {
      Vertex& vw = vertices_.at(w);
      if (vw.ord > ub) continue;
      if (vw.fwd_stamp != stamp) {
        vw.fwd_stamp = stamp;
        vw.parent = u;
        stack_.push_back(w);
      }
    }
  }

  // Backward DFS from a over vertices with ord >= lb.  Disjoint from the
  // forward set (overlap would have been a cycle caught above).
  backward_.clear();
  stack_.push_back(a);
  vertices_.at(a).bwd_stamp = stamp;
  while (!stack_.empty()) {
    NodeId u = stack_.back();
    stack_.pop_back();
    backward_.push_back(u);
    for (NodeId w : vertices_.at(u).in) {
      Vertex& vw = vertices_.at(w);
      if (vw.ord < lb) continue;
      if (vw.bwd_stamp != stamp) {
        vw.bwd_stamp = stamp;
        stack_.push_back(w);
      }
    }
  }

  // Reassign: the affected vertices keep their relative order within each
  // set, but every backward (≼ a) vertex now sorts before every forward
  // (≽ b) vertex, reusing the same pool of order keys.
  auto by_ord = [this](NodeId x, NodeId y) {
    return vertices_.at(x).ord < vertices_.at(y).ord;
  };
  std::sort(backward_.begin(), backward_.end(), by_ord);
  std::sort(forward_.begin(), forward_.end(), by_ord);

  pool_.clear();
  for (NodeId x : backward_) pool_.push_back(vertices_.at(x).ord);
  for (NodeId x : forward_) pool_.push_back(vertices_.at(x).ord);
  std::sort(pool_.begin(), pool_.end());

  size_t slot = 0;
  for (NodeId x : backward_) vertices_.at(x).ord = pool_[slot++];
  for (NodeId x : forward_) vertices_.at(x).ord = pool_[slot++];
  return true;
}

}  // namespace comptx::online
