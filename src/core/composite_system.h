#ifndef COMPTX_CORE_COMPOSITE_SYSTEM_H_
#define COMPTX_CORE_COMPOSITE_SYSTEM_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/commutativity.h"
#include "core/node.h"
#include "core/relation.h"
#include "core/schedule.h"
#include "util/id_window.h"
#include "util/status.h"
#include "util/status_or.h"

namespace comptx {

/// A composite system together with one recorded composite schedule
/// (paper Def 4): a set of component schedules whose transactions form a
/// computational forest.  This is the library's central type; correctness
/// checking (Comp-C, Def 20) operates on instances of it.
///
/// Construction is incremental: add schedules, then the forest
/// (root transactions, internal subtransaction operations, leaf
/// operations), then orders and conflicts.  Mutators validate local
/// referential rules eagerly and return Status; the global model rules of
/// Defs 3 and 4 (order containment, conflict ordering, recursion freedom,
/// order propagation between schedules) are checked by Validate().
///
/// A long-lived online consumer may also *release* a finished root's
/// subtree (ReleaseSubtree).  Node ids keep their meaning and are never
/// reused: NodeCount() is the number of ids ever assigned, HasNode() is
/// false for a released id, and node storage spans only the ids from the
/// oldest live node on.  Batch analyses need the whole forest, so
/// Validate() and the reduction refuse a system with released ids.
class CompositeSystem {
 public:
  CompositeSystem() = default;

  // Movable but not copyable by accident (instances can be large); use
  // Clone() for an explicit deep copy.
  CompositeSystem(const CompositeSystem&) = delete;
  CompositeSystem& operator=(const CompositeSystem&) = delete;
  CompositeSystem(CompositeSystem&&) = default;
  CompositeSystem& operator=(CompositeSystem&&) = default;

  /// Explicit deep copy.
  CompositeSystem Clone() const;

  // ---- Construction -----------------------------------------------------

  /// Adds an empty schedule named `name` and returns its id.
  ScheduleId AddSchedule(std::string name);

  /// Adds a root transaction (element of R, Def 4.5) executed by schedule
  /// `scheduler`.
  StatusOr<NodeId> AddRootTransaction(ScheduleId scheduler, std::string name);

  /// Adds an internal node (Def 4.4): an operation of `parent` that is in
  /// turn a transaction of schedule `scheduler`.
  StatusOr<NodeId> AddSubtransaction(NodeId parent, ScheduleId scheduler,
                                     std::string name);

  /// Adds a leaf operation (Def 4.3) as an operation of `parent`.
  StatusOr<NodeId> AddLeaf(NodeId parent, std::string name);

  /// Declares CON_S(a, b) for the host schedule of `a` and `b`; both must
  /// be operations of the same schedule.
  Status AddConflict(NodeId a, NodeId b);

  /// Declares a weak output order pair a ≺_S b; both must be operations of
  /// the same schedule S.
  Status AddWeakOutput(NodeId a, NodeId b);

  /// Declares a strong output order pair a ≪_S b (also added to the weak
  /// output order, since ≪ ⊆ ≺).
  Status AddStrongOutput(NodeId a, NodeId b);

  /// Declares a weak input order pair t → t'; both must be transactions of
  /// schedule `scheduler`.
  Status AddWeakInput(ScheduleId scheduler, NodeId t1, NodeId t2);

  /// Declares a strong input order pair t ⇒ t' (also added to the weak
  /// input order).
  Status AddStrongInput(ScheduleId scheduler, NodeId t1, NodeId t2);

  /// Declares a weak intra-transaction order pair a ≺_t b; both must be
  /// operations of transaction `txn`.
  Status AddIntraWeak(NodeId txn, NodeId a, NodeId b);

  /// Declares a strong intra-transaction order pair a ≪_t b (also added to
  /// the weak intra order).
  Status AddIntraStrong(NodeId txn, NodeId a, NodeId b);

  // ---- Semantic commutativity (ADT spec layer) ----------------------------
  //
  // An attached CommutativitySpec lets analyses *erase* declared conflict
  // bits between operations known to commute semantically (Weihl tables).
  // The spec is mask-only: EffectiveConflict(a, b) implies
  // conflicts.Contains(a, b), so Def 3.1 validation of the raw bits stays
  // valid and every spec-aware verdict is at least as permissive as the
  // bit-level one.

  /// Declares an ADT in the (lazily created) spec; returns its index.
  StatusOr<uint32_t> DeclareAdt(std::string name);

  /// Declares an operation class of ADT `adt`; returns its global index.
  StatusOr<uint32_t> DeclareAdtOp(uint32_t adt, std::string name);

  /// Declares that classes `c1` and `c2` commute (symmetric).
  Status DeclareCommute(uint32_t c1, uint32_t c2);

  /// Declares that classes `c1` and `c2` conflict (symmetric).
  Status DeclareClash(uint32_t c1, uint32_t c2);

  /// Tags `id` as an operation of class `op_class` on ADT instance
  /// `instance`.  Requires a spec with that class declared.
  Status TagOperation(NodeId id, uint32_t op_class, uint32_t instance);

  /// Installs a pre-built commutativity spec (e.g., loaded from a
  /// standalone "comptx-spec v1" file), replacing any spec declared
  /// in-band so far.  Existing node tags keep their class indices, so
  /// only attach a replacement that declares at least as many classes.
  void AttachSpec(CommutativitySpec spec);

  /// True iff a commutativity spec is attached (even an empty one).
  bool HasSpec() const { return spec_ != nullptr; }
  const CommutativitySpec* spec() const { return spec_.get(); }

  /// True iff the attached spec proves `a` and `b` commute: both tagged,
  /// and either they act on distinct ADT instances or their class pair is
  /// declared commuting.  False without a spec or for untagged nodes.
  bool SemanticallyCommutes(NodeId a, NodeId b) const;

  /// The semantic conflict relation analyses consult: the declared CON_S
  /// bit of `s` minus pairs the spec proves commuting.
  bool EffectiveConflict(ScheduleId s, NodeId a, NodeId b) const {
    return schedule(s).conflicts.Contains(a, b) && !SemanticallyCommutes(a, b);
  }

  // ---- Accessors ----------------------------------------------------------

  /// Node ids ever assigned; the next node created gets this id.
  size_t NodeCount() const { return static_cast<size_t>(nodes_.end()); }
  size_t ScheduleCount() const { return schedules_.size(); }
  /// Nodes not released.
  size_t LiveNodeCount() const { return live_nodes_; }
  /// True iff some id below NodeCount() was released.
  bool HasReleased() const { return live_nodes_ != NodeCount(); }
  /// The lowest live node id, or NodeCount() when no node is live.
  uint32_t OldestLiveId() const {
    return static_cast<uint32_t>(nodes_.begin());
  }
  /// Live node ids, ascending.
  std::vector<NodeId> LiveNodes() const;

  const Node& node(NodeId id) const;
  const Schedule& schedule(ScheduleId id) const;

  /// The intra orders ≺_t and ≪_t of all transactions (Def 2), one
  /// relation per kind: the O_t are disjoint, so a pair belongs to its
  /// source's parent, and t's pairs are the rows of its children.
  const Relation& weak_intra() const { return weak_intra_; }
  const Relation& strong_intra() const { return strong_intra_; }

  /// True iff `id` names an existing (assigned and not released) node.
  bool HasNode(NodeId id) const {
    return nodes_.Contains(id.index()) && nodes_[id.index()].id.valid();
  }
  bool HasSchedule(ScheduleId id) const {
    return id.index() < schedules_.size();
  }

  /// The schedule in whose operation set this node appears, i.e., the
  /// owner schedule of its parent.  Invalid for roots.
  ScheduleId HostScheduleOf(NodeId id) const;

  /// All root transactions, in creation order (set R).
  std::vector<NodeId> Roots() const;

  /// All leaf operations, in creation order (set L).
  std::vector<NodeId> Leaves() const;

  /// O_S: the operations of `scheduler`'s transactions, in creation order.
  std::vector<NodeId> OperationsOf(ScheduleId scheduler) const;

  /// Act(T) of Def 4.6: all descendants of `txn` (excluding `txn` itself),
  /// preorder.
  std::vector<NodeId> Descendants(NodeId txn) const;

  /// Invokes `f(NodeId)` for every descendant of `txn`, in the preorder of
  /// Descendants, without allocating: the walk climbs parent links and
  /// finds a node's next sibling by binary search, since children are
  /// created, and so listed, in ascending id order.
  template <typename F>
  void ForEachDescendant(NodeId txn, F f) const {
    const std::vector<NodeId>& top = node(txn).children;
    if (top.empty()) return;
    NodeId cur = top.front();
    while (true) {
      f(cur);
      const std::vector<NodeId>& children = node(cur).children;
      if (!children.empty()) {
        cur = children.front();
        continue;
      }
      // Climb to the nearest ancestor below `txn` with a next sibling.
      while (true) {
        const NodeId parent = node(cur).parent;
        const std::vector<NodeId>& siblings = node(parent).children;
        auto next = std::upper_bound(siblings.begin(), siblings.end(), cur);
        if (next != siblings.end()) {
          cur = *next;
          break;
        }
        if (parent == txn) return;
        cur = parent;
      }
    }
  }

  /// The root transaction of the execution tree containing `id`.
  NodeId RootOf(NodeId id) const;

  // ---- Spec introspection (used by the static analyzer / linter) ---------

  /// The distinct schedules invoking `callee` (Def 7: a schedule whose
  /// operation set contains a transaction of `callee`), ascending.  Empty
  /// for schedules hosting only root transactions.
  std::vector<ScheduleId> InvokersOf(ScheduleId callee) const;

  /// The number of distinct execution trees (RootOf values) among the
  /// transactions of `s`.  A schedule serving more than one tree is a
  /// "meet" schedule: the point where cross-root orders are created and
  /// where pull-up can forget them (paper Fig 4).
  size_t RootsServed(ScheduleId s) const;

  /// The conflict pairs of `s` whose operations belong to different
  /// execution trees (RootOf differs) — the candidates for cross-root
  /// constraints a shared scheduler exports upward.  Deterministic order.
  std::vector<std::pair<NodeId, NodeId>> CrossRootConflicts(
      ScheduleId s) const;

  /// Checks all global model rules (Defs 2-4).  Thin compatibility wrapper
  /// over CollectModelDiagnostics (core/validate.h): returns OK iff no
  /// error diagnostic, else the first error's message.  Analyses
  /// (reduction, criteria) require a valid system.  FailedPrecondition on
  /// a system with released ids.
  Status Validate() const;

  // ---- Windowing (long-lived online sessions) ----------------------------

  /// Releases the subtree of root transaction `root`: its Node records
  /// (tags included), its entries in every schedule's transaction list,
  /// its CON pairs and every schedule or intra order pair whose source
  /// lies in it.  Order pairs must not *enter* the subtree from outside
  /// (the online certifier releases only subtrees nothing points into);
  /// such a pair would be left naming a released id.  Storage of the
  /// released prefix of the id space is compacted in amortised O(1).
  Status ReleaseSubtree(NodeId root);

  /// OK iff no id was released; otherwise FailedPrecondition.  The guard
  /// of every batch entry point, which needs the whole forest.
  Status RequireWholeForest() const;

  /// Advances the next node id to `next_id` as if the skipped ids had been
  /// created and released.  Used to rebuild a windowed system from its
  /// live nodes with their original ids.
  void SkipReleasedIds(uint32_t next_id);

  // ---- Internal mutation (used by generators) ----------------------------

  /// Mutable access for construction helpers; prefer the typed mutators.
  Schedule& mutable_schedule(ScheduleId id);
  /// Unchecked intra orders, for fault injection.
  Relation& mutable_weak_intra() { return weak_intra_; }
  Relation& mutable_strong_intra() { return strong_intra_; }

 private:
  Status CheckOperationPair(NodeId a, NodeId b, ScheduleId* host) const;
  NodeId NextNodeId() const {
    return NodeId(static_cast<uint32_t>(nodes_.end()));
  }
  void AppendNode(Node n);

  /// Slots of ids [OldestLiveId(), NodeCount()); a released id inside the
  /// window holds a default Node (invalid id).
  IdWindow<Node> nodes_;
  size_t live_nodes_ = 0;
  std::vector<Schedule> schedules_;
  Relation weak_intra_;
  Relation strong_intra_;
  std::unique_ptr<CommutativitySpec> spec_;
  /// ReleaseSubtree's subtree buffer, reused across calls.
  std::vector<NodeId> release_scratch_;
};

/// Preorder interval index over a CompositeSystem's forest, answering
/// "is x in the subtree of a?" in O(1).  Build once per analysis pass;
/// invalidated by any structural mutation of the system.
class SubtreeIndex {
 public:
  explicit SubtreeIndex(const CompositeSystem& cs);

  /// True iff `x` is `ancestor` itself or a descendant of it.
  bool InSubtree(NodeId ancestor, NodeId x) const {
    return enter_[ancestor.index()] <= enter_[x.index()] &&
           exit_[x.index()] <= exit_[ancestor.index()];
  }

 private:
  std::vector<uint32_t> enter_;
  std::vector<uint32_t> exit_;
};

}  // namespace comptx

#endif  // COMPTX_CORE_COMPOSITE_SYSTEM_H_
