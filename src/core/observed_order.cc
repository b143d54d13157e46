#include "core/observed_order.h"

#include <algorithm>
#include <utility>

#include "core/indexing.h"

namespace comptx {

void ApplyLeafRuleObserved(const SystemContext& ctx, Front& front) {
  const CompositeSystem& cs = ctx.cs;
  const NodeBitSet membership(front.nodes);
  // A level-k schedule's operations left the front when the level-k front
  // was built, so schedules at or below the front's level are skipped —
  // their pairs could only fail the membership test anyway.
  for (size_t s = 0; s < cs.ScheduleCount(); ++s) {
    if (ctx.ig.schedule_level[s] <= front.level) continue;
    ctx.closed_weak_output[s].ForEach([&](NodeId a, NodeId b) {
      if (!membership.Contains(a) || !membership.Contains(b)) return;
      if (cs.node(a).IsLeaf() || cs.node(b).IsLeaf()) {
        front.observed.Add(a, b);
      }
    });
  }
}

void ComputeGeneralizedConflicts(const SystemContext& ctx, Front& front) {
  const CompositeSystem& cs = ctx.cs;
  front.conflicts = SymmetricPairSet();
  const NodeBitSet membership(front.nodes);
  // Same-schedule pairs: the schedule's own conflict predicate (Def 11.1).
  // Schedules at or below the front's level have no operations left in it.
  for (size_t s = 0; s < cs.ScheduleCount(); ++s) {
    if (ctx.ig.schedule_level[s] <= front.level) continue;
    cs.schedule(ScheduleId(s)).conflicts.ForEach([&](NodeId a, NodeId b) {
      if (membership.Contains(a) && membership.Contains(b) &&
          !cs.SemanticallyCommutes(a, b)) {
        front.conflicts.Add(a, b);
      }
    });
  }
  // Other pairs: pessimistically conflict iff observed-order related
  // (Def 11.2).
  for (size_t i = 0; i < front.observed.SourceCount(); ++i) {
    const NodeId a = front.observed.SourceAt(i);
    const ScheduleId ha = ctx.host_schedule[a.index()];
    for (uint32_t to : front.observed.SuccessorsAt(i)) {
      const NodeId b(to);
      if (a == b) continue;
      const ScheduleId hb = ctx.host_schedule[to];
      if (ha.valid() && ha == hb) continue;  // governed by CON_S above.
      front.conflicts.Add(a, b);
    }
  }
}

bool GeneralizedConflict(const SystemContext& ctx, const Front& front,
                         NodeId a, NodeId b) {
  const CompositeSystem& cs = ctx.cs;
  ScheduleId ha = ctx.host_schedule[a.index()];
  ScheduleId hb = ctx.host_schedule[b.index()];
  if (ha.valid() && ha == hb) {
    return cs.EffectiveConflict(ha, a, b);
  }
  return front.observed.Contains(a, b) || front.observed.Contains(b, a);
}

std::optional<std::pair<NodeId, NodeId>> PullUpObservedPair(
    const CompositeSystem& cs, NodeId a, NodeId b, NodeId ra, NodeId rb,
    bool forgetting) {
  if (ra == rb) return std::nullopt;  // the pair collapsed into one node.
  const bool pulled = (ra != a) || (rb != b);
  if (!pulled) {
    // Both endpoints survive into the next front unchanged.
    return std::make_pair(a, b);
  }
  ScheduleId ha = cs.HostScheduleOf(a);
  ScheduleId hb = cs.HostScheduleOf(b);
  if (ha.valid() && ha == hb) {
    // Operations of one common schedule: the schedule is authoritative.
    // Conflicting pairs propagate to the parents (Def 10.2); commuting
    // pairs — by absent CON_S bit or by an attached commutativity spec —
    // are forgotten (the schedule knows the order is irrelevant).
    if (cs.EffectiveConflict(ha, a, b) || !forgetting) {
      return std::make_pair(ra, rb);
    }
    return std::nullopt;
  }
  // Different schedules (or a root involved): propagate (Def 10.3).
  return std::make_pair(ra, rb);
}

Front MakeLevelZeroFront(const SystemContext& ctx) {
  Front front;
  front.level = 0;
  front.nodes = ctx.cs.Leaves();
  std::sort(front.nodes.begin(), front.nodes.end());
  ApplyLeafRuleObserved(ctx, front);
  ComputeGeneralizedConflicts(ctx, front);
  ComputeFrontInputOrders(ctx, front);
  return front;
}

}  // namespace comptx
