#include "graph/transitive_closure.h"

#include "graph/tarjan_scc.h"

namespace comptx::graph {

TransitiveClosure::TransitiveClosure(const Digraph& g)
    : words_per_row_((g.NodeCount() + 63) / 64),
      bits_(g.NodeCount() * words_per_row_, 0) {
  if (g.NodeCount() == 0) return;
  // Tarjan emits components in reverse topological order of the
  // condensation: when we process components in order 0, 1, ..., every
  // successor component of the one being processed is already final.
  SccResult scc = TarjanScc(g);
  for (size_t c = 0; c < scc.ComponentCount(); ++c) {
    const std::span<const NodeIndex> component = scc.Component(c);
    // Within a non-trivial SCC every member reaches every member.
    for (NodeIndex v : component) {
      for (NodeIndex w : g.OutNeighbors(v)) {
        SetBit(v, w);
        OrRow(v, w);
      }
    }
    if (component.size() > 1) {
      // Union the rows of the whole component, then broadcast.
      NodeIndex head = component.front();
      for (size_t i = 1; i < component.size(); ++i) OrRow(head, component[i]);
      for (NodeIndex v : component) SetBit(head, v);
      for (size_t i = 1; i < component.size(); ++i) {
        for (size_t w = 0; w < words_per_row_; ++w) {
          bits_[component[i] * words_per_row_ + w] =
              bits_[head * words_per_row_ + w];
        }
      }
    }
  }
}

bool TransitiveClosure::Reaches(NodeIndex from, NodeIndex to) const {
  return TestBit(from, to);
}

}  // namespace comptx::graph
