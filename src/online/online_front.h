#ifndef COMPTX_ONLINE_ONLINE_FRONT_H_
#define COMPTX_ONLINE_ONLINE_FRONT_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/composite_system.h"
#include "online/incremental_cycles.h"

namespace comptx::online {

/// Where an online certification failed, mirroring core ReductionFailure.
struct OnlineFailure {
  enum class Step { kCalculation, kConflictConsistency };
  uint32_t level = 0;
  Step step = Step::kConflictConsistency;
  std::vector<NodeId> witness;
  std::string description;
};

/// Per-level front state of the Def 16 reduction, patched event-by-event.
///
/// For a composite system of order N the engine maintains, for every level
/// j in [0, N]:
///   - the observed order of front j as generating pairs (Def 10, with
///     "forgetting" of commuting same-schedule pairs on pull-up), and
///   - the conflict-consistency graph of front j (observed ∪ weak input ∪
///     strong input, Def 13) as an incremental topological order;
/// and for every reduction step i in [1, N] one calculation graph holding
///   - the quotient of the calculation constraint graph by the level-i
///     blocks (Def 14/16 inter-block test), and
///   - the internal edges of every level-i block (Def 14 intra test,
///     seeded with the closed weak intra order).
/// The two vertex sets are disjoint — a node grouped at step i is never a
/// block representative at step i — and intra edges join children of one
/// block, so the union is acyclic iff the quotient and every block are,
/// and a cycle closed by an intra edge stays inside that edge's block.
///
/// Handlers receive *newly derived facts* (new closed pairs from the
/// certifier's incremental closures, new conflicts, new nodes) and patch
/// every affected level: an observed pair at level j cascades its pull-up
/// image to level j+1 via core PullUpObservedPair, so batch and online
/// agree pair-for-pair.  All structures are monotone in the event prefix
/// while schedule levels are stable; the certifier rebuilds the engine
/// whenever a structural event changes levels.
///
/// Every relation here — the observed orders, the strong pairs and the
/// edges of each graph — is a LiveRelation, i.e. core Relation rows plus
/// their converse, so pruning removes a node's pairs from the same dense
/// substrate the batch reducer uses.
///
/// Failure is sticky for reporting (the first violation is kept) but the
/// structures keep absorbing edges afterwards, so pruning bookkeeping and
/// later rebuilds stay exact.
class OnlineFrontEngine {
 public:
  OnlineFrontEngine() = default;

  /// (Re)initializes for `cs` with the given schedule levels and order,
  /// empty: the caller re-registers the live roots (OnNodeAdded) and
  /// replays its facts.  `cs` must outlive the engine; `forgetting` as in
  /// ReductionOptions.
  void Reset(const CompositeSystem* cs, std::vector<uint32_t> schedule_levels,
             uint32_t order, bool forgetting);

  // ---- Event handlers (called with facts not seen before) ---------------

  /// A schedule that invokes nothing was declared: its level is 1, and no
  /// other level nor the order changes.
  void OnScheduleAdded() { schedule_levels_.push_back(1); }

  /// A node was appended to the forest: registers roots in the top-level
  /// order and retroactively pulls existing strong constraints on its
  /// ancestors down onto it.
  void OnNodeAdded(NodeId x);

  /// CON_S gained the pair {a, b} (operations of one schedule).
  /// `weak_out_ab` / `weak_out_ba` tell whether the closed weak output
  /// order of that schedule contains (a,b) / (b,a) — passed in because the
  /// certifier holds the order's generators and walks them.
  void OnConflict(NodeId a, NodeId b, bool weak_out_ab, bool weak_out_ba);

  /// The closed weak output order of schedule `s` holds (a, b).  A pair
  /// routed again changes nothing.
  void OnClosedWeakOutput(ScheduleId s, NodeId a, NodeId b);

  /// The closed weak input order of a schedule, or weak intra order of a
  /// transaction, gained (u, v): a CC edge on every level both share.
  void OnClosedWeak(NodeId u, NodeId v);

  /// OnClosedWeak for an intra pair, plus an edge in its parent's block.
  void OnClosedWeakIntra(NodeId a, NodeId b);

  /// The closed strong input order of a schedule or strong intra order of
  /// a transaction gained (u, v); both are pulled down alike (Def 16).
  void OnClosedStrong(NodeId u, NodeId v);

  // ---- Verdict ----------------------------------------------------------

  bool certifiable() const { return !failure_.has_value(); }
  const std::optional<OnlineFailure>& failure() const { return failure_; }
  uint32_t order() const { return order_; }

  /// Topological position of `root` in the maintained top-level front
  /// order; roots sorted by this key form a serial witness while
  /// certifiable (Theorem 1).
  uint64_t TopOrderKey(NodeId root) const;

  /// First front containing x: 0 for leaves, the owner schedule's level
  /// for transactions.
  uint32_t SpanBegin(NodeId x) const;

  // ---- Pruning support --------------------------------------------------

  /// True iff `n` has an in-edge from some x with `!inside(x)` in any
  /// conflict-consistency or calculation graph (observed pairs are CC
  /// edges, so they are covered).  `inside` is membership in the sealed
  /// subtree being pruned: its internal edges disappear together with the
  /// subtree.
  template <typename Inside>
  bool HasIncomingEdges(NodeId n, const Inside& inside) const {
    const uint32_t begin = SpanBegin(n);
    const uint32_t end = SpanEnd(n);
    for (uint32_t j = begin; j <= end; ++j) {
      if (level_[j].cc.HasInEdgeFromOutside(n, inside)) return true;
    }
    for (uint32_t i = begin; i <= LastCalcStep(end); ++i) {
      if (calc_[i].HasInEdgeFromOutside(n, inside)) return true;
    }
    return false;
  }

  /// Removes `n` (still in the composite system) from every level and
  /// step structure.  Only the structures that can hold it are visited:
  /// the levels of its span, and the calculation steps SpanBegin(n)
  /// (where Rep places a grouped transaction) through SpanEnd(n) + 1.
  void RemoveNode(NodeId n);

  /// Releases per-id storage below `id`, the oldest id still live; every
  /// node below it was removed.
  void DropBefore(uint32_t id);

  // ---- Stats ------------------------------------------------------------

  size_t ObservedPairCount() const;
  size_t CcEdgeCount() const;
  size_t CalcEdgeCount() const;

 private:
  struct LevelState {
    LiveRelation observed;
    IncrementalCycleGraph cc;
  };

  /// Last front containing x: `order` for roots, host level - 1 otherwise.
  uint32_t SpanEnd(NodeId x) const;
  bool InFront(NodeId x, uint32_t j) const {
    return SpanBegin(x) <= j && j <= SpanEnd(x);
  }
  /// The last calculation step a node whose span ends at `span_end` can
  /// take part in.
  uint32_t LastCalcStep(uint32_t span_end) const {
    return std::min(span_end + 1, order_);
  }
  /// Representative of front-(i-1) node x in front i: its parent when the
  /// parent is grouped at step i, x itself otherwise.
  NodeId Rep(NodeId x, uint32_t i) const;

  /// Front-j members of subtree(t) into `out` (replacing its contents):
  /// t itself if present, else the descendants whose span contains j, in
  /// preorder.
  void FrontMembersOfSubtree(NodeId t, uint32_t j,
                             std::vector<NodeId>& out) const;

  /// Generalized conflict of an observed pair (Def 11): same-host pairs
  /// consult CON_S; all other observed pairs conflict by construction.
  bool BindingObserved(NodeId a, NodeId b) const;

  /// Inserts (a, b) into observed_j and cascades: CC edge at j, binding
  /// calculation edge at step j+1, pull-up image to level j+1.
  void AddObserved(uint32_t j, NodeId a, NodeId b);

  /// Adds a conflict-consistency edge at level j; records failure on cycle.
  void CcEdge(uint32_t j, NodeId a, NodeId b);

  /// Adds a calculation constraint edge between front-(i-1) members a, b
  /// for step i: between their blocks' representatives (distinct blocks)
  /// or, via IntraEdge, inside the grouping transaction's block.
  void CalcEdge(uint32_t i, NodeId a, NodeId b);

  /// Adds the internal edge a -> b of the level-i block of transaction p.
  void IntraEdge(uint32_t i, NodeId p, NodeId a, NodeId b);

  void Fail(uint32_t level, OnlineFailure::Step step,
            const std::vector<NodeId>& witness, const std::string& what);

  const CompositeSystem* cs_ = nullptr;
  std::vector<uint32_t> schedule_levels_;
  uint32_t order_ = 0;
  bool forgetting_ = true;

  std::vector<LevelState> level_;  // [0, order]
  std::vector<IncrementalCycleGraph> calc_;  // index i in [1, order] used
  /// Every closed strong pair seen so far (input and intra orders), kept
  /// so OnNodeAdded can pull existing pairs down onto new forest nodes.
  LiveRelation strong_;
  std::optional<OnlineFailure> failure_;

  // FrontMembersOfSubtree buffers of the strong pull-downs, reused across
  // calls.
  std::vector<NodeId> members_u_;
  std::vector<NodeId> members_v_;
};

}  // namespace comptx::online

#endif  // COMPTX_ONLINE_ONLINE_FRONT_H_
