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
  host_schedule.resize(cs.NodeCount());
  for (uint32_t v = 0; v < cs.NodeCount(); ++v) {
    host_schedule[v] = cs.node(NodeId(v)).host;
  }
  // Each order kind is closed once.  Its pairs are kept only inside their
  // container — O_S for a schedule's output order, T_S for its input
  // orders, one transaction's children for the intra orders — exactly the
  // pairs a closure within each container would see.  Containers are
  // disjoint, so closing all kept pairs together gives the union of the
  // per-container closures.  Without validation a pair may leave its
  // container (or name no node); it is dropped, as the container's domain
  // would drop it.
  const auto in = [&](NodeId v, ScheduleId Node::*field, ScheduleId c) {
    return cs.HasNode(v) && cs.node(v).*field == c;
  };
  closed_weak_output.reserve(cs.ScheduleCount());
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    const ScheduleId sid(s);
    closed_weak_output.push_back(ClosureOfPairs([&](const auto& emit) {
      cs.schedule(sid).weak_output.ForEach([&](NodeId a, NodeId b) {
        if (in(a, &Node::host, sid) && in(b, &Node::host, sid)) emit(a, b);
      });
    }));
  }
  const auto close_input = [&](Relation Schedule::*order) {
    return ClosureOfPairs([&](const auto& emit) {
      for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
        const ScheduleId sid(s);
        (cs.schedule(sid).*order).ForEach([&](NodeId a, NodeId b) {
          if (in(a, &Node::owner_schedule, sid) &&
              in(b, &Node::owner_schedule, sid)) {
            emit(a, b);
          }
        });
      }
    });
  };
  closed_weak_input = close_input(&Schedule::weak_input);
  closed_strong_input = close_input(&Schedule::strong_input);
  const auto siblings = [&](NodeId a, NodeId b) {
    return cs.HasNode(a) && cs.HasNode(b) && cs.node(a).parent.valid() &&
           cs.node(a).parent == cs.node(b).parent;
  };
  const auto close_intra = [&](const Relation& order) {
    return ClosureOfPairs([&](const auto& emit) {
      order.ForEach([&](NodeId a, NodeId b) {
        if (siblings(a, b)) emit(a, b);
      });
    });
  };
  closed_weak_intra = close_intra(cs.weak_intra());
  closed_strong_intra = close_intra(cs.strong_intra());
}

namespace {

/// Adds (x, y) to `out` for every front pair with x in subtree(a), y in
/// subtree(b).  This is the pull-down of a strong constraint a ≪ b to the
/// front.  `in_a` and `in_b` are scratch, reused across constraints.
void AddPulledDownPairs(const SystemContext& ctx,
                        const std::vector<NodeId>& front_nodes, NodeId a,
                        NodeId b, std::vector<NodeId>& in_a,
                        std::vector<NodeId>& in_b, Relation& out) {
  // Collect front members of each subtree (a front node is in at most one
  // of them since a and b are siblings or co-scheduled transactions, whose
  // subtrees are disjoint).
  in_a.clear();
  in_b.clear();
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
  std::vector<NodeId> in_a;
  std::vector<NodeId> in_b;

  std::vector<uint32_t> row;
  // Weak input orders are the pairs directly in the front, added row by
  // row so each row is sized once.
  auto add_weak = [&](const Relation& closed) {
    for (size_t i = 0; i < closed.SourceCount(); ++i) {
      const NodeId a = closed.SourceAt(i);
      if (!membership.Contains(a)) continue;
      row.clear();
      for (uint32_t to : closed.SuccessorsAt(i)) {
        if (membership.Contains(NodeId(to))) row.push_back(to);
      }
      front.weak_input.AddAll(a, row);
    }
  };
  // Strong temporal orders are pulled down from every strong constraint.
  auto add_strong = [&](NodeId x, NodeId y) {
    AddPulledDownPairs(ctx, front.nodes, x, y, in_a, in_b,
                       front.strong_input);
  };
  add_weak(ctx.closed_weak_input);
  ctx.closed_strong_input.ForEach(add_strong);
  add_weak(ctx.closed_weak_intra);
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
