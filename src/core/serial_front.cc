#include "core/serial_front.h"

#include "core/indexing.h"
#include "graph/topological_sort.h"
#include "util/string_util.h"

namespace comptx {

namespace {

/// The union of observed and input orders as a digraph over local indices.
graph::Digraph AllOrdersDigraph(const Front& front, const NodeIndexMap& index) {
  graph::Digraph g(index.size());
  AddRelationEdges(front.observed, index, g);
  AddRelationEdges(front.weak_input, index, g);
  AddRelationEdges(front.strong_input, index, g);
  return g;
}

}  // namespace

bool IsSerialFront(const Front& front) {
  Relation closed = ClosureWithin(front.strong_input, front.nodes);
  for (NodeId a : front.nodes) {
    for (NodeId b : front.nodes) {
      if (a == b) continue;
      if (!closed.Contains(a, b) && !closed.Contains(b, a)) return false;
    }
  }
  return true;
}

StatusOr<std::vector<NodeId>> SerializeFront(const Front& front) {
  NodeIndexMap index(front.nodes);
  graph::Digraph g = AllOrdersDigraph(front, index);
  COMPTX_ASSIGN_OR_RETURN(std::vector<uint32_t> order,
                          graph::TopologicalSort(g));
  std::vector<NodeId> out;
  out.reserve(order.size());
  for (uint32_t local : order) out.push_back(index.GlobalOf(local));
  return out;
}

Front MakeSerialFront(const Front& front, const std::vector<NodeId>& order) {
  COMPTX_CHECK_EQ(order.size(), front.nodes.size());
  Front serial = front;
  serial.strong_input = Relation();
  serial.weak_input = Relation();
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    serial.strong_input.Add(order[i], order[i + 1]);
  }
  serial.weak_input = serial.strong_input;
  return serial;
}

bool FrontsEquivalent(const Front& a, const Front& b) {
  if (a.nodes != b.nodes) return false;
  Relation obs_a = ClosureWithin(a.observed, a.nodes);
  Relation obs_b = ClosureWithin(b.observed, b.nodes);
  if (!(obs_a == obs_b)) return false;
  return a.conflicts == b.conflicts;
}

bool LevelContains(const Front& container, const Front& front) {
  if (container.nodes != front.nodes) return false;
  if (!(container.conflicts == front.conflicts)) return false;
  Relation strong = ClosureWithin(container.strong_input, container.nodes);
  bool contained = strong.ContainsAllOf(front.observed) &&
                   strong.ContainsAllOf(front.weak_input) &&
                   strong.ContainsAllOf(front.strong_input);
  return contained;
}

}  // namespace comptx
