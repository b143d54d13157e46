#include "graph/tarjan_scc.h"

#include <algorithm>

namespace comptx::graph {

bool SccResult::AllTrivial(const Digraph& g) const {
  if (ComponentCount() != g.NodeCount()) return false;
  return !g.HasSelfLoop();
}

SccResult TarjanScc(const Digraph& g) {
  const size_t n = g.NodeCount();
  constexpr uint32_t kUnvisited = UINT32_MAX;

  SccResult result;
  result.component_of.assign(n, kUnvisited);
  result.members.reserve(n);

  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeIndex> scc_stack;
  uint32_t next_index = 0;

  // Iterative Tarjan; frame = (node, next out-neighbor offset).
  std::vector<std::pair<NodeIndex, size_t>> call_stack;
  for (NodeIndex root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.emplace_back(root, 0);
    while (!call_stack.empty()) {
      auto& [v, next] = call_stack.back();
      if (next == 0) {
        index[v] = lowlink[v] = next_index++;
        scc_stack.push_back(v);
        on_stack[v] = true;
      }
      const auto& out = g.OutNeighbors(v);
      if (next < out.size()) {
        NodeIndex w = out[next++];
        if (index[w] == kUnvisited) {
          call_stack.emplace_back(w, 0);
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          const auto component =
              static_cast<uint32_t>(result.ComponentCount());
          NodeIndex w;
          do {
            w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            result.component_of[w] = component;
            result.members.push_back(w);
          } while (w != v);
          result.offsets.push_back(
              static_cast<uint32_t>(result.members.size()));
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          NodeIndex parent = call_stack.back().first;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  return result;
}

}  // namespace comptx::graph
