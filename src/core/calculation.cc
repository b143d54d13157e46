#include "core/calculation.h"

#include <utility>

#include "core/observed_order.h"
#include "graph/cycle_finder.h"
#include "graph/quotient.h"
#include "util/string_util.h"

namespace comptx {

graph::Digraph BuildCalculationConstraintGraph(const SystemContext& ctx,
                                               const Front& front,
                                               const NodeIndexMap& index) {
  const CompositeSystem& cs = ctx.cs;
  graph::Digraph g(index.size());

  // 1. Strong temporal orders can never be reordered.
  front.strong_input.ForEach([&](NodeId a, NodeId b) {
    g.AddEdge(index.LocalOf(a), index.LocalOf(b));
  });

  // 2. Observed orders bind when the pair conflicts (generalized CON);
  //    commuting pairs may be swapped when constructing F** (Def 16.1).
  //    Edges are inserted in row order; witness cycles depend on it.
  for (size_t i = 0; i < front.observed.SourceCount(); ++i) {
    const NodeId a = front.observed.SourceAt(i);
    const uint32_t la = index.LocalOf(a);
    const ScheduleId ha = ctx.host_schedule[a.index()];
    for (uint32_t to : front.observed.SuccessorsAt(i)) {
      const NodeId b(to);
      // GeneralizedConflict specialized to a pair already known to be in
      // the observed order: cross-schedule pairs conflict by Def 11.2
      // outright; only same-schedule pairs consult the schedule's CON_S
      // (minus spec-proven commuting pairs).
      const ScheduleId hb = ctx.host_schedule[to];
      if (!ha.valid() || ha != hb || cs.EffectiveConflict(ha, a, b)) {
        g.AddEdge(la, index.LocalOf(b));
      }
    }
  }

  // 3. Serialization decisions of the schedules: conflicting operation
  //    pairs ordered by their schedule's weak output order, in schedule
  //    order.  Schedules at or below the front's level were already
  //    grouped — their operations are no longer in the index, so they are
  //    skipped outright.
  for (size_t s = 0; s < cs.ScheduleCount(); ++s) {
    if (ctx.ig.schedule_level[s] <= front.level) continue;
    const Schedule& sched = cs.schedule(ScheduleId(s));
    const Relation& closed_output = ctx.closed_weak_output[s];
    sched.conflicts.ForEach([&](NodeId a, NodeId b) {
      if (cs.SemanticallyCommutes(a, b)) return;
      auto la = index.TryLocalOf(a);
      auto lb = index.TryLocalOf(b);
      if (!la || !lb) return;
      if (closed_output.Contains(a, b)) g.AddEdge(*la, *lb);
      if (closed_output.Contains(b, a)) g.AddEdge(*lb, *la);
    });
  }
  return g;
}

std::optional<CycleWitness> FindCalculationViolation(
    const SystemContext& ctx, const Front& front,
    const std::vector<NodeId>& group_transactions) {
  const CompositeSystem& cs = ctx.cs;
  NodeIndexMap index(front.nodes);
  graph::Digraph constraints =
      BuildCalculationConstraintGraph(ctx, front, index);

  // Assign blocks: members of each group transaction share a block; every
  // other front node is a singleton block.
  constexpr uint32_t kUnassigned = UINT32_MAX;
  std::vector<uint32_t> block_of(index.size(), kUnassigned);
  // block id -> representative (the transaction for group blocks, the node
  // itself for singletons).
  std::vector<NodeId> block_rep;
  for (NodeId txn : group_transactions) {
    const uint32_t block = static_cast<uint32_t>(block_rep.size());
    block_rep.push_back(txn);
    for (NodeId op : cs.node(txn).children) {
      auto local = index.TryLocalOf(op);
      COMPTX_CHECK(local.has_value())
          << "operation " << cs.node(op).name << " of group transaction "
          << cs.node(txn).name << " is not in the level " << front.level
          << " front";
      block_of[*local] = block;
    }
  }
  for (uint32_t local = 0; local < index.size(); ++local) {
    if (block_of[local] == kUnassigned) {
      block_of[local] = static_cast<uint32_t>(block_rep.size());
      block_rep.push_back(index.GlobalOf(local));
    }
  }

  // Inter-block test: the quotient graph must be acyclic.
  graph::Digraph quotient = graph::QuotientGraph(
      constraints, block_of, static_cast<uint32_t>(block_rep.size()));
  if (auto cycle = graph::FindCycle(quotient)) {
    CycleWitness witness;
    for (uint32_t block : *cycle) witness.nodes.push_back(block_rep[block]);
    witness.description = StrCat(
        "no calculation at level ", front.level + 1, ": ", cycle->size(),
        "-block cycle prevents isolating the level ", front.level + 1,
        " transactions (Def 14/16)");
    return witness;
  }

  // Intra-block test: each group's constraints together with the
  // transaction's weak intra order must be acyclic.  The first violating
  // group is reported.  All groups share one graph, group after group and
  // each in child order; no edge joins two groups, so the depth-first
  // search meets them in turn and finds the first violating group's cycle
  // exactly as a graph of that group alone would.
  std::vector<uint32_t> member_of(index.size());  // set for members only
  std::vector<uint32_t> front_local;  // member -> front local index
  for (NodeId txn : group_transactions) {
    const Node& t = cs.node(txn);
    if (t.children.size() < 2) continue;
    for (NodeId op : t.children) {
      const uint32_t local = index.LocalOf(op);
      member_of[local] = static_cast<uint32_t>(front_local.size());
      front_local.push_back(local);
    }
  }
  graph::Digraph intra(front_local.size());
  // A row gets its constraint edges first, then its intra order, both
  // kept to the row's own group (a node sharing a member's block is a
  // member of the same group).
  auto add_in_group = [&](uint32_t m, uint32_t local_b) {
    if (block_of[local_b] == block_of[front_local[m]]) {
      intra.AddEdge(m, member_of[local_b]);
    }
  };
  for (uint32_t m = 0; m < front_local.size(); ++m) {
    for (uint32_t lw : constraints.OutNeighbors(front_local[m])) {
      add_in_group(m, lw);
    }
  }
  for (uint32_t m = 0; m < front_local.size(); ++m) {
    const NodeId a = index.GlobalOf(front_local[m]);
    for (uint32_t to : ctx.closed_weak_intra.SuccessorIds(a)) {
      if (auto lb = index.TryLocalOf(NodeId(to))) add_in_group(m, *lb);
    }
  }
  if (auto cycle = graph::FindCycle(intra)) {
    CycleWitness witness;
    for (uint32_t m : *cycle) {
      witness.nodes.push_back(index.GlobalOf(front_local[m]));
    }
    const Node& t =
        cs.node(block_rep[block_of[front_local[cycle->front()]]]);
    witness.description =
        StrCat("no calculation for transaction ", t.name,
               ": the observed order contradicts its intra-transaction ",
               "order (Def 14)");
    return witness;
  }
  return std::nullopt;
}

}  // namespace comptx
