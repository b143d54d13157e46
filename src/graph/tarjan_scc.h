#ifndef COMPTX_GRAPH_TARJAN_SCC_H_
#define COMPTX_GRAPH_TARJAN_SCC_H_

#include <cstddef>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace comptx::graph {

/// Strongly connected components of a digraph.
struct SccResult {
  /// component_of[v] is the component index of node v; component indices
  /// are in reverse topological order of the condensation (component 0 is a
  /// sink in the condensation).
  std::vector<uint32_t> component_of;
  /// The members of every component, component after component, each in
  /// the order Tarjan's stack released them.
  std::vector<NodeIndex> members;
  /// Component c is members[offsets[c], offsets[c + 1]); offsets[0] = 0.
  std::vector<uint32_t> offsets = {0};

  size_t ComponentCount() const { return offsets.size() - 1; }

  /// The members of component `c`.
  std::span<const NodeIndex> Component(size_t c) const {
    return {members.data() + offsets[c], members.data() + offsets[c + 1]};
  }

  /// True iff every component is a single node without a self-loop, i.e.,
  /// the graph is acyclic.
  bool AllTrivial(const Digraph& g) const;
};

/// Computes strongly connected components with an iterative Tarjan
/// algorithm (no recursion, safe for graphs with long paths).
SccResult TarjanScc(const Digraph& g);

}  // namespace comptx::graph

#endif  // COMPTX_GRAPH_TARJAN_SCC_H_
