#include "core/front.h"

#include <algorithm>
#include <utility>

#include "core/indexing.h"
#include "graph/cycle_finder.h"
#include "util/string_util.h"

namespace comptx {

bool Front::ContainsNode(NodeId id) const {
  return std::binary_search(nodes.begin(), nodes.end(), id);
}

SystemContext::SystemContext(const CompositeSystem& system)
    : cs(system), subtree(system), ig([&] {
        auto result = BuildInvocationGraph(system);
        COMPTX_CHECK(result.ok())
            << "SystemContext requires a recursion-free system: "
            << result.status().ToString();
        return std::move(result).value();
      }()) {
  COMPTX_CHECK(!cs.HasReleased())
      << "SystemContext requires the whole forest: "
      << cs.RequireWholeForest().ToString();
  closed_weak_output.resize(cs.ScheduleCount());
  for (size_t s = 0; s < cs.ScheduleCount(); ++s) {
    const Schedule& sched = cs.schedule(ScheduleId(s));
    closed_weak_output[s] =
        ClosureWithin(sched.weak_output, cs.OperationsOf(ScheduleId(s)));
    closed_weak_input.UnionWith(
        ClosureWithin(sched.weak_input, sched.transactions));
    closed_strong_input.UnionWith(
        ClosureWithin(sched.strong_input, sched.transactions));
  }
  host_schedule.resize(cs.NodeCount());
  for (uint32_t v = 0; v < cs.NodeCount(); ++v) {
    const Node& n = cs.node(NodeId(v));
    host_schedule[v] = n.host;
    closed_weak_intra.UnionWith(ClosureWithin(cs.weak_intra(), n.children));
    closed_strong_intra.UnionWith(
        ClosureWithin(cs.strong_intra(), n.children));
  }
}

namespace {

/// Adds (x, y) to `out` for every front pair with x in subtree(a), y in
/// subtree(b).  This is the pull-down of a strong constraint a ≪ b to the
/// front.
void AddPulledDownPairs(const SystemContext& ctx,
                        const std::vector<NodeId>& front_nodes, NodeId a,
                        NodeId b, Relation& out) {
  // Collect front members of each subtree (a front node is in at most one
  // of them since a and b are siblings or co-scheduled transactions, whose
  // subtrees are disjoint).
  std::vector<NodeId> in_a;
  std::vector<NodeId> in_b;
  for (NodeId x : front_nodes) {
    if (ctx.subtree.InSubtree(a, x)) {
      in_a.push_back(x);
    } else if (ctx.subtree.InSubtree(b, x)) {
      in_b.push_back(x);
    }
  }
  for (NodeId x : in_a) {
    for (NodeId y : in_b) out.Add(x, y);
  }
}

}  // namespace

void ComputeFrontInputOrders(const SystemContext& ctx, Front& front) {
  front.weak_input = Relation();
  front.strong_input = Relation();
  const NodeBitSet membership(front.nodes);

  auto add_weak = [&](NodeId x, NodeId y) {
    if (membership.Contains(x) && membership.Contains(y)) {
      front.weak_input.Add(x, y);
    }
  };
  auto add_strong = [&](NodeId x, NodeId y) {
    AddPulledDownPairs(ctx, front.nodes, x, y, front.strong_input);
  };
  // Weak input orders are pairs directly in the front; strong temporal
  // orders are pulled down from every strong constraint.
  ctx.closed_weak_input.ForEach(add_weak);
  ctx.closed_strong_input.ForEach(add_strong);
  ctx.closed_weak_intra.ForEach(add_weak);
  ctx.closed_strong_intra.ForEach(add_strong);

  // Strong orders are also weak orders (Def 1).
  front.weak_input.UnionWith(front.strong_input);
}

std::optional<CycleWitness> FindConflictConsistencyViolation(
    const Front& front) {
  NodeIndexMap index(front.nodes);
  graph::Digraph g(index.size());
  AddRelationEdges(front.observed, index, g);
  AddRelationEdges(front.weak_input, index, g);
  AddRelationEdges(front.strong_input, index, g);
  auto cycle = graph::FindCycle(g);
  if (!cycle) return std::nullopt;
  CycleWitness witness;
  witness.nodes.reserve(cycle->size());
  for (uint32_t local : *cycle) witness.nodes.push_back(index.GlobalOf(local));
  witness.description =
      StrCat("front level ", front.level, " is not conflict consistent: ",
             cycle->size(), "-node cycle in observed ∪ input orders");
  return witness;
}

bool IsConflictConsistent(const Front& front) {
  return !FindConflictConsistencyViolation(front).has_value();
}

}  // namespace comptx
