#ifndef COMPTX_ONLINE_CERTIFIER_H_
#define COMPTX_ONLINE_CERTIFIER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/composite_system.h"
#include "online/online_front.h"
#include "util/id_window.h"
#include "util/status.h"
#include "util/status_or.h"
#include "workload/trace.h"

namespace comptx::online {

struct CertifierState;  // online/state_io.h

struct CertifierOptions {
  /// Forgetting of commuting same-schedule observed pairs on pull-up
  /// (Def 10 rule 3); mirrors ReductionOptions::forgetting.
  bool forgetting = true;

  /// Prune automatically after every commit that seals a root and after
  /// every rebuild: ingesting an event only adds edges, and only a rebuild
  /// can clear a failure, so these are the only points where a sealed
  /// subtree can become prunable (docs/THEORY.md, "When pruning runs").
  /// Prune() runs a pass on demand either way.
  bool auto_prune = true;
};

/// The answer to "is the execution ingested so far still certifiable?".
/// Matches the boolean verdict of batch CheckCompC on the same event
/// prefix (with validation disabled: prefixes of well-formed executions
/// legitimately violate the completeness rules of Defs 3-4 until their
/// remaining events arrive).  The failure location is best effort: online
/// reports the first violation it encountered in stream order, batch the
/// first in level order.
struct CertifierVerdict {
  bool certifiable = true;
  uint32_t order = 0;
  std::optional<OnlineFailure> failure;
};

struct CertifierStats {
  uint64_t events_accepted = 0;
  uint64_t events_rejected = 0;
  uint64_t rebuilds = 0;        // schedule-level changes forcing a replay
  uint64_t prune_passes = 0;    // pruning attempts that removed something
  uint64_t pruned_nodes = 0;
  uint64_t sealed_roots = 0;    // committed roots, pruned or not
  uint64_t commit_watermark = 0;  // highest commit_through applied
  size_t live_nodes = 0;        // nodes not garbage-collected
  /// NodeCount() minus the oldest live id: the id span the session's
  /// node storage covers.  Tracks live_nodes while the window slides; a
  /// root that never commits pins it, and it then grows with the stream.
  size_t window_span = 0;
  size_t observed_pairs = 0;
  size_t cc_edges = 0;
  size_t calc_edges = 0;
  /// Pairs of the four materialized closures (weak and strong input,
  /// weak and strong intra).
  size_t closure_pairs = 0;
  /// Weak output pairs as ingested (weak and strong output events): the
  /// generators the closed weak output order is walked from.
  size_t weak_output_generators = 0;
};

/// An online, incremental Comp-C certifier session.
///
/// Feed it the event stream of an executing composite system (the same
/// events a trace file contains: schedule/transaction/operation creation,
/// conflict declarations, weak/strong order edges, root commits) and ask
/// after each event whether the execution so far is still certifiable.
/// The per-event work is a local patch of per-level front state instead of
/// the full level-by-level reduction, so the amortized cost per event is
/// far below re-running batch CheckCompC on every prefix:
///
///   - the transitive closures of the input and intra orders are
///     maintained incrementally and emit only newly closed pairs (one
///     LiveRelation on core Relation rows per order kind: weak and strong
///     input, weak and strong intra).  Every order relates nodes of one
///     container — the operations of a schedule, the transactions of a
///     schedule, the children of a transaction — and containers are
///     disjoint, so one session-wide closure per kind closes exactly the
///     pairs the per-container closures would;
///   - the weak output order is never closed: its generators stay in the
///     host schedules, and a walk over them decides whether a pair is
///     closed and finds, at each output event, the newly closed pairs the
///     engine needs — those with a leaf end or a conflict, and of a
///     generator joining two leaves only the conflicting ones, since a
///     path already implies the others (docs/THEORY.md, "Implied weak
///     output pairs");
///   - each new fact is routed to the affected front levels, where
///     acyclicity is maintained by incremental topological ordering
///     (Pearce-Kelly) rather than full DFS;
///   - observed-order pairs cascade their pull-up images level by level
///     through core PullUpObservedPair, the exact per-pair rule the batch
///     reducer uses.
///
/// Structural events that change schedule levels (new nesting via `sub`,
/// or the first `schedule`, which sets the order to 1)
/// invalidate the level assignment and trigger a rebuild: the engine is
/// reset and re-fed from the retained closures and generators.  All
/// derived state is a monotone function of the ingested facts, so replay
/// order does not matter and the rebuilt state equals what a fresh
/// session would hold.
///
/// Committed roots are sealed: later events referencing their subtree are
/// rejected, and the prune pass run by every sealing commit and every
/// rebuild removes a sealed subtree from every structure once nothing
/// points into it anymore (such nodes can never lie on a future violation
/// cycle, so the verdict is unaffected).  The
/// subtree also leaves the composite system itself
/// (CompositeSystem::ReleaseSubtree), so every structure indexed by node
/// id — the system, the seal bits, the root list — spans only the live
/// window, never the history.  Ids are never reused: a node keeps its
/// creation index for the whole session, and an event naming a pruned id
/// is rejected like one naming a sealed id.  The prune pass walks only the
/// sealed-but-unpruned roots, so its cost is bounded by the live window,
/// not the session's history (DESIGN.md §13.1); it tests subtree
/// membership by walking parent links (RootOf), so it allocates nothing
/// per candidate.
///
/// Thread safety (audited for the certification service, PR 5): a
/// Certifier has *no* static or global mutable state — every structure
/// hangs off the instance — so distinct instances never interfere and may
/// be driven from distinct threads freely (the service runs one instance
/// per session, each drained by one worker at a time).  Within one
/// instance, Ingest/IngestBatch/Commit/Prune and the verdict readers
/// (Verdict/Certifiable/SerialWitness/Stats) serialize on the session
/// lock `mu_`, the only lock: it guards every structure, the closures
/// included, and there is no intra-instance parallelism.  Two caveats
/// define the supported contract, enforced by ServiceStress/
/// CertifierConcurrency tests:
///   * concurrent *writers* are safe but pointless — events interleave in
///     an unspecified order, and a stream's meaning depends on its order,
///     so keep one ingesting thread per instance (readers are free);
///   * system() returns a reference read without the lock; do not call it
///     while another thread may be ingesting.
class Certifier {
 public:
  explicit Certifier(const CertifierOptions& options = {});

  Certifier(const Certifier&) = delete;
  Certifier& operator=(const Certifier&) = delete;

  /// Applies one event to the session.  Rejected events (malformed,
  /// unknown references, events referencing a sealed subtree, recursion-
  /// introducing `sub` events) leave the session unchanged.
  Status Ingest(const workload::TraceEvent& event);

  /// Applies `events` in order under one lock acquisition: exactly the
  /// equivalent Ingest sequence, pruning included, so
  /// every status, verdict, witness and counter matches.  Returns the
  /// number of rejected events; per-event statuses go to `statuses` when
  /// non-null (resized to events.size()).
  size_t IngestBatch(const std::vector<workload::TraceEvent>& events,
                     std::vector<Status>* statuses = nullptr);

  /// Current verdict; failure is sticky while schedule levels are stable.
  CertifierVerdict Verdict() const;
  bool Certifiable() const;

  /// Seals `root` (a committed root transaction): subsequent events that
  /// reference any node of its subtree are rejected, making the subtree
  /// eligible for pruning.  Idempotent.
  Status Commit(NodeId root);

  /// Runs a pruning pass now; returns the number of nodes removed.
  size_t Prune();

  /// Sealed roots not yet pruned, ascending.  The durability snapshot
  /// persists these so a restore can re-seal them (online/state_io.h).
  std::vector<NodeId> SealedRoots() const;

  /// Overwrites the stream counters.  Recovery-only: a restored session
  /// must report the original stream's accepted/rejected totals, not the
  /// replay's (the replay ingests only the accepted history plus
  /// synthesized commit events).
  void RestoreCounters(uint64_t accepted, uint64_t rejected);

  /// Restore-only: the next node created gets id `next_node` and the next
  /// root the creation ordinal `next_root`; the ids and ordinals skipped
  /// were released before the snapshot was taken.  Invalid when either
  /// value is below the current count.
  Status SkipReleased(uint32_t next_node, uint64_t next_root);

  /// Restore-only: adds schedule invocation edges (caller schedule,
  /// callee schedule) that the restored window may no longer witness with
  /// a `sub`, so the session keeps its levels and its recursion
  /// rejections.  Rejects unknown schedules and recursive edges.
  Status RestoreInvocations(
      const std::vector<std::pair<uint32_t, uint32_t>>& edges);

  /// While certifiable: live (unpruned) roots in a serializable order,
  /// read off the maintained topological order of the top-level front
  /// (Theorem 1).  Empty when not certifiable.
  std::vector<NodeId> SerialWitness() const;

  CertifierStats Stats() const;

  /// The composite system's live window: every node not yet pruned
  /// (pruned subtrees are released from it).  Batch analyses refuse it
  /// once something was pruned; save it with SaveTrace for a checkable
  /// copy of the window.
  const CompositeSystem& system() const { return cs_; }

 private:
  // The snapshot writer reads the window layout (root ordinals,
  // invocation edges) that no verdict reader needs.
  friend StatusOr<CertifierState> CaptureCertifierState(
      const Certifier& certifier);

  /// Ingest's body: applies one event and counts it.
  Status IngestCountedLocked(const workload::TraceEvent& event);
  /// Applies one event; rejected events leave the session unchanged.
  Status IngestLocked(const workload::TraceEvent& event);
  Status CheckNotSealed(NodeId id) const;

  /// Seals `root` and its descendants; returns true if it was not
  /// already sealed.  Prune scheduling is the caller's business.
  bool SealRootLocked(NodeId root);

  /// Recomputes schedule levels from the invocation adjacency; returns
  /// true if any level (or the order) changed.
  bool RecomputeLevels();

  /// True iff adding the invocation edge from -> to would close a cycle.
  bool WouldCreateRecursion(ScheduleId from, ScheduleId to) const;

  /// Resets the engine for the current levels, replays all closures and
  /// the closed weak output pairs, and prunes (under auto_prune).
  void Rebuild();

  /// True iff the closed weak output order of `s` holds (x, y), x != y:
  /// (x, y) is a generator, or a longer generator path leads from x to
  /// y.
  bool WeakOutputClosed(ScheduleId s, NodeId x, NodeId y);
  /// True iff a path of two or more `generators` leads from x to y.  The
  /// walk goes forward from x, never follows the generator (x, y) and
  /// stops at y.  When it returns false, walk_forward_ holds x, then
  /// every node reached, stamped forward with `stamp`; x carries the
  /// stamp only if it lies on a cycle.
  bool ReachesByLongerPath(const Relation& generators, NodeId x, NodeId y,
                           uint32_t stamp);
  /// For the new generator (a, b) of `s`, already in cs_ but not yet in
  /// weak_output_preds_: if it was not closed before, routes the pairs it
  /// closes that the engine needs, lowest front first, then in (a, b)
  /// order (docs/THEORY.md, "Implied weak output pairs").
  void RouteWeakOutput(ScheduleId s, NodeId a, NodeId b);
  /// A stamp no node slot carries yet.
  uint32_t NextStamp();

  size_t PruneLocked();
  /// True iff the sealed subtree of `root` (subtree_, root included) has
  /// no in-edge from outside it in any maintained structure.
  bool CanPrune(NodeId root) const;
  /// Removes the nodes of subtree_ from the engine and the closures.
  void RemoveSubtree();

  /// True iff `id` is sealed or was pruned (released from cs_).
  bool IsSealed(NodeId id) const;
  void MarkSealed(NodeId id);
  /// Drops the released prefix of nodes_ and roots_.
  void CompactWindowsLocked();

  /// The four closures, for the walks that treat them alike (pruning,
  /// stats).
  std::array<LiveRelation*, 4> Closures() {
    return {&weak_input_, &strong_input_, &weak_intra_, &strong_intra_};
  }
  std::array<const LiveRelation*, 4> Closures() const {
    return {&weak_input_, &strong_input_, &weak_intra_, &strong_intra_};
  }

  const CertifierOptions options_;

  mutable std::mutex mu_;  // session lock: guards all mutable state.
  CompositeSystem cs_;
  OnlineFrontEngine engine_;

  /// The incrementally maintained transitive closures of the input and
  /// intra orders, one per order kind across every schedule and
  /// transaction, each kept closed by LiveRelation::AddClosing.  They
  /// cannot be walked like the weak output order: a transaction's span
  /// can be shorter than its partners' spans, so an implied pair is not
  /// always a path on a front (docs/THEORY.md).  The strong input and
  /// strong intra pairs reach the engine through one handler but are
  /// closed apart: a subtransaction is a transaction of its schedule and
  /// a child of its parent, so closing their union would chain an input
  /// pair into an intra pair and make pairs that neither order implies.
  LiveRelation weak_input_;
  LiveRelation strong_input_;
  LiveRelation weak_intra_;
  LiveRelation strong_intra_;

  /// The converse of every schedule's weak output generators: row y
  /// holds each x with (x, y) in the host schedule's weak_output, which
  /// holds the forward rows.  Read by the backward walks, CanPrune and
  /// RemoveSubtree.
  Relation weak_output_preds_;

  /// Schedule invocation adjacency (edge = host schedule invokes the
  /// subtransaction's schedule), kept for the recursion pre-check and the
  /// cheap level recomputation.
  std::vector<std::unordered_set<uint32_t>> invokes_;
  std::vector<uint32_t> schedule_levels_;
  uint32_t order_ = 0;

  /// Root transactions by creation ordinal, windowed like cs_: the slots
  /// of ordinals from the oldest live root on (a pruned root's slot keeps
  /// its id until the prefix is dropped; skipped ordinals of a restored
  /// session hold the invalid id).  Keeps SerialWitness and commit-
  /// watermark sealing O(window) without scanning cs_.
  IdWindow<NodeId> roots_;

  /// Per live node id, windowed like cs_: the seal bit (a pruned id is no
  /// longer in cs_ and counts as sealed without a slot) and the stamps
  /// the weak output walks mark visited nodes with, so a walk allocates
  /// nothing and its marks span only the live window.
  struct NodeSlot {
    uint32_t forward = 0;
    uint32_t backward = 0;
    bool sealed = false;
  };
  IdWindow<NodeSlot> nodes_;
  /// Appends to `out` every node reached from the nodes in it over
  /// `rows` (a schedule's generators, or their converse) whose `side`
  /// stamp is neither `stamp` nor `stop`, and stamps it; `out` doubles as
  /// the queue.
  void Walk(const Relation& rows, uint32_t NodeSlot::*side, uint32_t stamp,
            uint32_t stop, std::vector<NodeId>& out);
  uint32_t walk_stamp_ = 0;
  uint64_t sealed_root_count_ = 0;  // roots ever sealed, pruned or not

  /// Sealed roots not yet pruned — the prune pass's entire worklist
  /// (swap-removed when pruned), which is what makes PruneLocked
  /// O(window) instead of O(all roots ever sealed).
  std::vector<NodeId> unpruned_sealed_;

  /// Highest kCommitThrough watermark applied (count of roots in
  /// creation order known committed).
  uint64_t commit_watermark_ = 0;

  /// True once any conflict or order event has been accepted.  A semantic
  /// event (commute/clash/tag) arriving later is retroactive — it can
  /// erase conflicts whose consequences the engine already derived — so
  /// it forces a Rebuild.  Well-behaved producers ship the spec and tags
  /// before the relational stream and never pay this.
  bool saw_relational_event_ = false;

  uint64_t events_accepted_ = 0;
  uint64_t events_rejected_ = 0;
  uint64_t rebuilds_ = 0;
  uint64_t prune_passes_ = 0;

  // Scratch reused across events so the steady state allocates nothing:
  // the four closures' span copies, the newly closed pairs of one order
  // event, the weak output pairs one output event routes, the two sides
  // of a weak output walk, and the subtree (root
  // first, then preorder) the prune pass is examining.
  ClosingScratch closing_;
  std::vector<std::pair<NodeId, NodeId>> new_strong_;
  std::vector<std::pair<NodeId, NodeId>> new_weak_;
  /// A weak output pair to route and the first front holding both ends.
  struct RoutedPair {
    uint32_t front;
    NodeId x, y;
  };
  std::vector<RoutedPair> routed_;
  std::vector<NodeId> walk_forward_;
  std::vector<NodeId> walk_backward_;
  std::vector<NodeId> subtree_;
};

}  // namespace comptx::online

#endif  // COMPTX_ONLINE_CERTIFIER_H_
