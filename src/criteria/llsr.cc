#include "criteria/llsr.h"

#include "core/indexing.h"
#include "criteria/conflict_consistency.h"
#include "graph/cycle_finder.h"

namespace comptx::criteria {

graph::Digraph PulledUpOrderGraph(const CompositeSystem& cs,
                                  const Relation& base) {
  graph::Digraph g(cs.NodeCount());
  base.ForEach([&](NodeId a, NodeId b) {
    NodeId x = a;
    NodeId y = b;
    while (x != y) {
      g.AddEdge(x.index(), y.index());
      NodeId px = cs.node(x).parent;
      NodeId py = cs.node(y).parent;
      if (!px.valid() && !py.valid()) break;  // both roots.
      x = px.valid() ? px : x;
      y = py.valid() ? py : y;
    }
  });
  return g;
}

bool IsLevelByLevelSerializable(const CompositeSystem& cs) {
  Relation base;
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    base.UnionWith(ScheduleSerializationOrder(cs, ScheduleId(s)));
    base.UnionWith(cs.schedule(ScheduleId(s)).weak_input);
  }
  // Multilevel transactions respect program order: each transaction's
  // intra orders are requirements every level must honor.
  base.UnionWith(cs.weak_intra());
  return graph::IsAcyclic(PulledUpOrderGraph(cs, base));
}

}  // namespace comptx::criteria
