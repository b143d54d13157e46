#include "criteria/oracle.h"

#include "core/indexing.h"
#include "criteria/conflict_consistency.h"
#include "graph/cycle_finder.h"

namespace comptx::criteria {

namespace {

/// Demand accumulator: the demands met at a transaction, all in one
/// relation (a pair's meet is its source's parent, and operation sets are
/// disjoint), and one extra bucket for the root level.
struct Demands {
  Relation at_meet;
  Relation root_level;
};

/// Walks the ordering requirement a-before-b up the parent chains and
/// records the surviving demand at the meet.  `can_die` enables the
/// forgetting rule for common-schedule commuting pairs.
///
/// The check runs on every iteration, including the first: a schedule
/// exports an order upward only between pairs that *effectively*
/// conflict on it, and for an input-order requirement the decision
/// point is the pair's own host schedule (the caller that imposed the
/// order).  Walks that start from a conflicting operation pair are
/// unaffected — their first hop is the schedule recording the conflict,
/// where EffectiveConflict is true by the caller's filter.
void WalkUp(const CompositeSystem& cs, NodeId a, NodeId b, bool can_die,
            Demands& demands) {
  while (true) {
    if (a == b) return;  // requirement internal to one node; vacuous.
    const Node& na = cs.node(a);
    const Node& nb = cs.node(b);
    const bool a_root = !na.parent.valid();
    const bool b_root = !nb.parent.valid();
    if (a_root && b_root) {
      demands.root_level.Add(a, b);
      return;
    }
    if (can_die) {
      ScheduleId ha = cs.HostScheduleOf(a);
      ScheduleId hb = cs.HostScheduleOf(b);
      if (ha.valid() && ha == hb && !cs.EffectiveConflict(ha, a, b)) {
        // One common schedule vouches that a and b commute: the order is
        // irrelevant above this point (forgetting).
        return;
      }
    }
    NodeId pa = a_root ? a : na.parent;
    NodeId pb = b_root ? b : nb.parent;
    if (pa == pb) {
      demands.at_meet.Add(a, b);
      return;
    }
    a = pa;
    b = pb;
  }
}

}  // namespace

StatusOr<bool> HierarchicalSerializabilityOracle(const CompositeSystem& cs) {
  COMPTX_RETURN_IF_ERROR(cs.Validate());

  // Local consistency first: every component schedule must be conflict
  // consistent on its own (Def 13 applies to every front, so a
  // serialization-vs-input cycle at one schedule is fatal no matter what
  // upper levels declare commutative).
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    if (!IsScheduleConflictConsistent(cs, ScheduleId(s))) return false;
  }

  Demands demands;

  for (uint32_t si = 0; si < cs.ScheduleCount(); ++si) {
    const ScheduleId sid(si);
    const Schedule& s = cs.schedule(sid);
    const std::vector<NodeId> ops = cs.OperationsOf(sid);
    Relation weak_out = ClosureWithin(s.weak_output, ops);
    Relation strong_out = ClosureWithin(s.strong_output, ops);

    // Conflicting pairs demand their recorded direction (forgettable).
    // Spec-proven commuting pairs demand nothing: their recorded order is
    // an artifact, exactly like an undeclared conflict bit.
    s.conflicts.ForEach([&](NodeId o1, NodeId o2) {
      if (cs.SemanticallyCommutes(o1, o2)) return;
      if (weak_out.Contains(o1, o2)) WalkUp(cs, o1, o2, true, demands);
      if (weak_out.Contains(o2, o1)) WalkUp(cs, o2, o1, true, demands);
    });

    // Strong output orders are absolute temporal facts (never forgotten).
    strong_out.ForEach(
        [&](NodeId a, NodeId b) { WalkUp(cs, a, b, false, demands); });

    // Strong input orders: the callers demanded strict sequencing.
    ClosureWithin(s.strong_input, s.transactions)
        .ForEach([&](NodeId a, NodeId b) { WalkUp(cs, a, b, false, demands); });

    // Weak input orders: net-effect order requirements; demanded at the
    // meet (see the exactness caveat in the header).
    ClosureWithin(s.weak_input, s.transactions)
        .ForEach([&](NodeId a, NodeId b) { WalkUp(cs, a, b, true, demands); });
  }

  // Intra-transaction requirements and per-meet demands must be jointly
  // satisfiable at each transaction.
  for (uint32_t v = 0; v < cs.NodeCount(); ++v) {
    const Node& n = cs.node(NodeId(v));
    if (!n.IsTransaction() || n.children.size() < 2) continue;
    NodeIndexMap index(n.children);
    graph::Digraph combined = RelationToDigraph(cs.weak_intra(), index);
    AddRelationEdges(demands.at_meet, index, combined);
    if (!graph::IsAcyclic(combined)) return false;
  }

  // Root-level demands must admit a total root order.
  NodeIndexMap roots(cs.Roots());
  if (!graph::IsAcyclic(RelationToDigraph(demands.root_level, roots))) {
    return false;
  }
  return true;
}

}  // namespace comptx::criteria
