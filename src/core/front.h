#ifndef COMPTX_CORE_FRONT_H_
#define COMPTX_CORE_FRONT_H_

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/composite_system.h"
#include "core/invocation_graph.h"
#include "core/relation.h"
#include "util/status_or.h"

namespace comptx {

/// A computational front (Def 12): a maximal set of independent nodes of
/// the forest, together with the orders known about them at this
/// abstraction level.
struct Front {
  /// The front's level: 0 is the all-leaves front (Def 15); level i is the
  /// result of reducing all level-i schedules (Def 16).
  uint32_t level = 0;

  /// The independent node set O, in deterministic (ascending id) order.
  std::vector<NodeId> nodes;

  /// The observed order <_o over `nodes` (Def 10).  Stored as generating
  /// pairs; it is implicitly transitively closed (closure does not change
  /// any acyclicity judgement, so it is not materialized).
  Relation observed;

  /// The generalized conflict relation CON over `nodes` (Def 11):
  /// same-schedule pairs inherit the schedule's CON_S; cross-schedule
  /// pairs conflict iff they are observed-order related.
  SymmetricPairSet conflicts;

  /// Weak input orders between front nodes: schedule input orders →_S over
  /// co-scheduled transaction pairs plus intra-transaction weak orders ≺_P
  /// over sibling pairs, both restricted to pairs directly in the front.
  Relation weak_input;

  /// Strong temporal orders between front nodes: every strong constraint
  /// (⇒_S over co-scheduled transactions, ≪_P over siblings) pulled down
  /// to the front members of the constrained subtrees.  These pairs can
  /// never be reordered (Def 16 step 1).
  Relation strong_input;

  /// True iff `id` is a member of this front.
  bool ContainsNode(NodeId id) const;
};

/// A directed cycle violating an acyclicity requirement, with the nodes
/// named so diagnostics are actionable (cf. the paper's Fig 3 discussion).
struct CycleWitness {
  std::vector<NodeId> nodes;
  std::string description;
};

/// Precomputed, transitively closed views of a validated composite system,
/// shared by the reduction machinery.  Building it validates nothing; call
/// CompositeSystem::Validate() first (the reduction driver does).
struct SystemContext {
  explicit SystemContext(const CompositeSystem& cs);

  const CompositeSystem& cs;
  SubtreeIndex subtree;
  InvocationGraphResult ig;

  /// Per schedule: the weak output order closed within O_S.
  std::vector<Relation> closed_weak_output;
  /// Input orders closed within each T_S, intra orders within each O_t;
  /// the sets are disjoint, so one relation per kind holds them all.
  Relation closed_weak_input;
  Relation closed_strong_input;
  Relation closed_weak_intra;
  Relation closed_strong_intra;

  /// Cached CompositeSystem::HostScheduleOf per node (invalid for roots);
  /// the conflict machinery probes this millions of times per reduction.
  std::vector<ScheduleId> host_schedule;
};

/// Recomputes a front's `weak_input` and `strong_input` from the system
/// context (see the Front field comments for the exact rule).
void ComputeFrontInputOrders(const SystemContext& ctx, Front& front);

/// Checks conflict consistency of a front (Def 13): the union of the
/// observed order and the input orders must be acyclic.  Returns a witness
/// cycle if it is not.
std::optional<CycleWitness> FindConflictConsistencyViolation(
    const Front& front);

/// Convenience wrapper around FindConflictConsistencyViolation.
bool IsConflictConsistent(const Front& front);

}  // namespace comptx

#endif  // COMPTX_CORE_FRONT_H_
