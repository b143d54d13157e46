#include "online/certifier.h"

#include <algorithm>
#include <deque>

#include "util/string_util.h"

namespace comptx::online {

using workload::TraceEvent;
using workload::TraceEventKind;

Certifier::Certifier(const CertifierOptions& options) : options_(options) {
  engine_.Reset(&cs_, {}, 0, options_.forgetting);
}

bool Certifier::IsSealed(NodeId id) const {
  if (id.index() >= cs_.NodeCount()) return false;
  if (!cs_.HasNode(id)) return true;  // pruned: released from cs_.
  return node_flags_[id.index()] != 0;
}

void Certifier::MarkSealed(NodeId id) { node_flags_[id.index()] = 1; }

void Certifier::CompactWindowsLocked() {
  node_flags_.DropBefore(cs_.OldestLiveId());
  engine_.DropBefore(cs_.OldestLiveId());
  while (!roots_.empty() && !cs_.HasNode(roots_.front())) {
    roots_.DropBefore(roots_.begin() + 1);
  }
}

Status Certifier::Ingest(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  return IngestCountedLocked(event);
}

size_t Certifier::IngestBatch(const std::vector<TraceEvent>& events,
                              std::vector<Status>* statuses) {
  std::lock_guard<std::mutex> lock(mu_);
  if (statuses) {
    statuses->clear();
    statuses->reserve(events.size());
  }
  size_t rejected = 0;
  for (const TraceEvent& event : events) {
    Status status = IngestCountedLocked(event);
    if (!status.ok()) ++rejected;
    if (statuses) statuses->push_back(std::move(status));
  }
  return rejected;
}

Status Certifier::IngestCountedLocked(const TraceEvent& event) {
  Status status = IngestLocked(event);
  if (!status.ok()) {
    ++events_rejected_;
    return status;
  }
  ++events_accepted_;
  return status;
}

Status Certifier::CheckNotSealed(NodeId id) const {
  if (!IsSealed(id)) return Status::OK();
  if (!cs_.HasNode(id)) {
    return Status::FailedPrecondition(
        StrCat("node ", id.index(),
               " belongs to a committed root's pruned subtree"));
  }
  return Status::FailedPrecondition(
      StrCat("node ", id.index(), " (", cs_.node(id).name,
             ") belongs to a committed root's sealed subtree"));
}

bool Certifier::SealRootLocked(NodeId root) {
  if (IsSealed(root)) return false;
  ++sealed_root_count_;
  unpruned_sealed_.push_back(root);
  MarkSealed(root);
  cs_.ForEachDescendant(root, [&](NodeId d) { MarkSealed(d); });
  return true;
}

bool Certifier::WouldCreateRecursion(ScheduleId from, ScheduleId to) const {
  if (from == to) return true;
  // BFS over the invocation adjacency: recursion iff `to` reaches `from`.
  std::vector<bool> seen(invokes_.size(), false);
  std::deque<uint32_t> queue = {to.index()};
  seen[to.index()] = true;
  while (!queue.empty()) {
    uint32_t s = queue.front();
    queue.pop_front();
    if (s == from.index()) return true;
    for (uint32_t next : invokes_[s]) {
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
    }
  }
  return false;
}

bool Certifier::RecomputeLevels() {
  const size_t count = cs_.ScheduleCount();
  std::vector<uint32_t> levels(count, 0);
  // level(s) = 1 + longest invocation path starting at s (Def 9); the
  // adjacency is acyclic by the recursion pre-check, so a memoized
  // post-order DFS suffices.  Its stack is explicit because an invocation
  // chain may be as long as the schedule count.
  struct Frame {
    uint32_t s;
    std::unordered_set<uint32_t>::const_iterator next;
  };
  std::vector<Frame> stack;
  uint32_t order = 0;
  for (uint32_t root = 0; root < count; ++root) {
    if (levels[root] == 0) stack.push_back({root, invokes_[root].begin()});
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next != invokes_[top.s].end()) {
        // Acyclic: an unlevelled callee is not on the stack yet.
        const uint32_t callee = *top.next++;
        if (levels[callee] == 0) {
          stack.push_back({callee, invokes_[callee].begin()});
        }
        continue;
      }
      uint32_t best = 0;
      for (uint32_t callee : invokes_[top.s]) {
        best = std::max(best, levels[callee]);
      }
      levels[top.s] = best + 1;
      stack.pop_back();
    }
    order = std::max(order, levels[root]);
  }
  const bool changed = levels != schedule_levels_ || order != order_;
  schedule_levels_ = std::move(levels);
  order_ = order;
  return changed;
}

void Certifier::Rebuild() {
  ++rebuilds_;
  engine_.Reset(&cs_, schedule_levels_, order_, options_.forgetting);
  for (uint64_t i = roots_.begin(); i < roots_.end(); ++i) {
    if (cs_.HasNode(roots_[i])) engine_.OnNodeAdded(roots_[i]);
  }
  // Replay every retained closed pair, each closure in (a, b) order.
  // All derived structures are monotone functions of these facts (the
  // conflict-dependent rules consult the complete CON relations of cs_ at
  // replay time), so the result equals a fresh session's state.  A pair's
  // container is recovered from its source: the host schedule of an
  // output pair, the parent transaction of an intra pair.
  weak_output_.ForEach([&](NodeId a, NodeId b) {
    engine_.OnClosedWeakOutput(cs_.HostScheduleOf(a), a, b);
  });
  weak_input_.ForEach(
      [&](NodeId a, NodeId b) { engine_.OnClosedWeak(a, b); });
  strong_input_.ForEach(
      [&](NodeId a, NodeId b) { engine_.OnClosedStrong(a, b); });
  weak_intra_.ForEach(
      [&](NodeId a, NodeId b) { engine_.OnClosedWeakIntra(a, b); });
  strong_intra_.ForEach(
      [&](NodeId a, NodeId b) { engine_.OnClosedStrong(a, b); });
  // Besides a commit, a replay is the one place a sealed subtree can
  // become prunable: it may clear a failure (a retroactive commute erases
  // the conflicts of a cycle), and pruning waits on a certifiable engine.
  if (options_.auto_prune) PruneLocked();
}

Status Certifier::IngestLocked(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kSchedule: {
      cs_.AddSchedule(e.name);
      invokes_.emplace_back();
      // A new schedule invokes nothing, so its level is 1 and no other
      // level moves.  Only the first schedule changes the order (0 -> 1).
      schedule_levels_.push_back(1);
      if (order_ == 0) {
        order_ = 1;
        Rebuild();
      } else {
        engine_.OnScheduleAdded();
      }
      return Status::OK();
    }
    case TraceEventKind::kRoot: {
      COMPTX_ASSIGN_OR_RETURN(
          NodeId root, cs_.AddRootTransaction(ScheduleId(e.schedule), e.name));
      roots_.push_back(root);
      node_flags_.push_back(0);
      engine_.OnNodeAdded(root);
      return Status::OK();
    }
    case TraceEventKind::kSub: {
      const NodeId parent(e.parent);
      const ScheduleId sched(e.schedule);
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(parent));
      if (cs_.HasNode(parent) && cs_.HasSchedule(sched) &&
          cs_.node(parent).IsTransaction()) {
        // An existing invocation edge was checked when first added.
        const ScheduleId host = cs_.node(parent).owner_schedule;
        if (invokes_[host.index()].count(sched.index()) == 0 &&
            WouldCreateRecursion(host, sched)) {
          return Status::FailedPrecondition(
              StrCat("subtransaction under ", cs_.node(parent).name,
                     " would make schedule ", cs_.schedule(sched).name,
                     " (indirectly) invoke itself"));
        }
      }
      COMPTX_ASSIGN_OR_RETURN(NodeId sub,
                              cs_.AddSubtransaction(parent, sched, e.name));
      node_flags_.push_back(0);
      // Levels are longest invocation paths, so a new edge host -> sched
      // moves a level only if it lengthens host's: level(sched) + 1 must
      // exceed level(host).  Otherwise no level or order changes.
      const uint32_t host = cs_.node(parent).owner_schedule.index();
      const bool deepens =
          invokes_[host].insert(sched.index()).second &&
          schedule_levels_[sched.index()] + 1 > schedule_levels_[host];
      if (deepens && RecomputeLevels()) {
        Rebuild();
      } else {
        engine_.OnNodeAdded(sub);
      }
      return Status::OK();
    }
    case TraceEventKind::kLeaf: {
      const NodeId parent(e.parent);
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(parent));
      COMPTX_ASSIGN_OR_RETURN(NodeId leaf, cs_.AddLeaf(parent, e.name));
      node_flags_.push_back(0);
      engine_.OnNodeAdded(leaf);
      return Status::OK();
    }
    case TraceEventKind::kConflict: {
      const NodeId a(e.a), b(e.b);
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(a));
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(b));
      COMPTX_RETURN_IF_ERROR(cs_.AddConflict(a, b));
      saw_relational_event_ = true;
      engine_.OnConflict(a, b, weak_output_.Contains(a, b),
                         weak_output_.Contains(b, a));
      return Status::OK();
    }
    case TraceEventKind::kWeakOutput:
    case TraceEventKind::kStrongOutput: {
      const NodeId a(e.a), b(e.b);
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(a));
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(b));
      // A strong output pair is also a weak output pair (Def 1); the
      // decision procedure only consumes the weak output closure, so both
      // kinds route through it.
      COMPTX_RETURN_IF_ERROR(e.kind == TraceEventKind::kWeakOutput
                                 ? cs_.AddWeakOutput(a, b)
                                 : cs_.AddStrongOutput(a, b));
      saw_relational_event_ = true;
      const ScheduleId host = cs_.HostScheduleOf(a);
      new_weak_.clear();
      weak_output_.AddClosing(a, b, closing_, new_weak_);
      // A commuting pair implied through a leaf generator (a, b) is already
      // a path x -> a -> b -> y in every front that holds it, and with
      // forgetting its pull-up is forgotten: it stays in the closure, which
      // OnConflict, CanPrune and Rebuild read, but the engine never sees it
      // (docs/THEORY.md, "Implied weak output pairs").
      const bool leaf_generator = options_.forgetting &&
                                  cs_.node(a).IsLeaf() && cs_.node(b).IsLeaf();
      for (const auto& [x, y] : new_weak_) {
        if (leaf_generator && (x != a || y != b) &&
            !cs_.EffectiveConflict(host, x, y)) {
          continue;
        }
        engine_.OnClosedWeakOutput(host, x, y);
      }
      return Status::OK();
    }
    case TraceEventKind::kWeakInput:
    case TraceEventKind::kStrongInput: {
      const ScheduleId sched(e.schedule);
      const NodeId a(e.a), b(e.b);
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(a));
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(b));
      const bool strong = e.kind == TraceEventKind::kStrongInput;
      COMPTX_RETURN_IF_ERROR(strong ? cs_.AddStrongInput(sched, a, b)
                                    : cs_.AddWeakInput(sched, a, b));
      saw_relational_event_ = true;
      new_strong_.clear();
      new_weak_.clear();
      // Strong pairs are weak too.
      if (strong) strong_input_.AddClosing(a, b, closing_, new_strong_);
      weak_input_.AddClosing(a, b, closing_, new_weak_);
      for (const auto& [x, y] : new_strong_) engine_.OnClosedStrong(x, y);
      for (const auto& [x, y] : new_weak_) engine_.OnClosedWeak(x, y);
      return Status::OK();
    }
    case TraceEventKind::kIntraWeak:
    case TraceEventKind::kIntraStrong: {
      const NodeId txn(e.parent);
      const NodeId a(e.a), b(e.b);
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(txn));
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(a));
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(b));
      const bool strong = e.kind == TraceEventKind::kIntraStrong;
      COMPTX_RETURN_IF_ERROR(strong ? cs_.AddIntraStrong(txn, a, b)
                                    : cs_.AddIntraWeak(txn, a, b));
      saw_relational_event_ = true;
      new_strong_.clear();
      new_weak_.clear();
      // Strong implies weak.
      if (strong) strong_intra_.AddClosing(a, b, closing_, new_strong_);
      weak_intra_.AddClosing(a, b, closing_, new_weak_);
      for (const auto& [x, y] : new_strong_) engine_.OnClosedStrong(x, y);
      for (const auto& [x, y] : new_weak_) engine_.OnClosedWeakIntra(x, y);
      return Status::OK();
    }
    case TraceEventKind::kCommit: {
      const NodeId root(e.parent);
      // Only committed subtrees are released, so committing a pruned id
      // is the idempotent no-op committing a sealed root is.
      if (root.index() < cs_.NodeCount() && !cs_.HasNode(root)) {
        return Status::OK();
      }
      if (!cs_.HasNode(root) || !cs_.node(root).IsRoot()) {
        return Status::InvalidArgument(
            StrCat("commit of ", e.parent, ": not a root transaction"));
      }
      if (!SealRootLocked(root)) return Status::OK();  // idempotent.
      if (options_.auto_prune) PruneLocked();
      return Status::OK();
    }
    case TraceEventKind::kCommitThrough: {
      // Cumulative watermark: every root with creation index < e.a is
      // committed.  Counted in creation order, so the walk resumes at
      // the previous watermark and the per-event cost is bounded by the
      // number of newly covered roots — O(window) across the session.
      const uint64_t through = e.a;
      if (through > roots_.end()) {
        return Status::InvalidArgument(
            StrCat("commit_through ", through, ": only ", roots_.end(),
                   " root transactions exist"));
      }
      // Ordinals below the window's start belong to pruned roots.
      bool sealed_any = false;
      for (uint64_t i = std::max(std::min(commit_watermark_, through),
                                 roots_.begin());
           i < through; ++i) {
        if (roots_[i].valid()) {
          sealed_any = SealRootLocked(roots_[i]) || sealed_any;
        }
      }
      commit_watermark_ = std::max(commit_watermark_, through);
      if (sealed_any && options_.auto_prune) PruneLocked();
      return Status::OK();
    }
    case TraceEventKind::kAdtDecl:
      return cs_.DeclareAdt(e.name).status();
    case TraceEventKind::kAdtOp:
      return cs_.DeclareAdtOp(e.a, e.name).status();
    case TraceEventKind::kCommute:
    case TraceEventKind::kClash: {
      COMPTX_RETURN_IF_ERROR(e.kind == TraceEventKind::kCommute
                                 ? cs_.DeclareCommute(e.a, e.b)
                                 : cs_.DeclareClash(e.a, e.b));
      // Retroactive spec change: conflicts already ingested may have been
      // derived under the old table.  Replay from the retained closures.
      if (saw_relational_event_) Rebuild();
      return Status::OK();
    }
    case TraceEventKind::kTag: {
      const NodeId target(e.parent);
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(target));
      COMPTX_RETURN_IF_ERROR(cs_.TagOperation(target, e.a, e.b));
      if (saw_relational_event_) Rebuild();
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown event kind");
}

Status Certifier::Commit(NodeId root) {
  TraceEvent e;
  e.kind = TraceEventKind::kCommit;
  e.parent = root.index();
  return Ingest(e);
}

std::vector<NodeId> Certifier::SealedRoots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NodeId> roots = unpruned_sealed_;
  std::sort(roots.begin(), roots.end());
  return roots;
}

void Certifier::RestoreCounters(uint64_t accepted, uint64_t rejected) {
  std::lock_guard<std::mutex> lock(mu_);
  events_accepted_ = accepted;
  events_rejected_ = rejected;
}

Status Certifier::SkipReleased(uint32_t next_node, uint64_t next_root) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_node < cs_.NodeCount() || next_root < roots_.end()) {
    return Status::InvalidArgument(
        StrCat("cannot skip back to node ", next_node, " / root ", next_root,
               ": ", cs_.NodeCount(), " nodes and ", roots_.end(),
               " roots exist"));
  }
  // Only sealed roots are pruned.
  sealed_root_count_ += next_root - roots_.end();
  cs_.SkipReleasedIds(next_node);
  node_flags_.ExtendTo(next_node, 0);
  roots_.ExtendTo(next_root, NodeId());
  return Status::OK();
}

Status Certifier::RestoreInvocations(
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [from, to] : edges) {
    if (from >= invokes_.size() || to >= invokes_.size()) {
      return Status::InvalidArgument(
          StrCat("invocation edge ", from, " -> ", to, ": only ",
                 invokes_.size(), " schedules exist"));
    }
    if (invokes_[from].count(to) != 0) continue;
    if (WouldCreateRecursion(ScheduleId(from), ScheduleId(to))) {
      return Status::FailedPrecondition(
          StrCat("invocation edge ", from, " -> ", to, " is recursive"));
    }
    invokes_[from].insert(to);
  }
  if (RecomputeLevels()) Rebuild();
  return Status::OK();
}

bool Certifier::CanPrune(NodeId root) const {
  // In-edges whose source lies inside the subtree are removed together
  // with it, so only edges crossing the boundary from outside pin the
  // subtree down.  This is sound because PruneLocked only runs while the
  // engine is certifiable: every maintained graph is acyclic, so the
  // subtree carries no internal cycle whose evidence removal could lose,
  // and with a zero external in-degree no future event (which may not
  // reference sealed nodes) can ever route a cycle through the subtree.
  // Membership walks at most `order` parent links.
  const auto inside = [&](NodeId x) { return cs_.RootOf(x) == root; };
  for (NodeId n : subtree_) {
    // No external in-edge in any front-level or calculation graph (intra
    // edges join children of one transaction, so they are always
    // internal), nor in any closure: closure in-edges could later
    // manufacture derived in-edges by transitivity without any event
    // naming `n`.
    if (engine_.HasIncomingEdges(n, inside)) return false;
    for (const LiveRelation* closure : Closures()) {
      if (closure->HasPredecessorOutside(n, inside)) return false;
    }
  }
  return true;
}

void Certifier::RemoveSubtree() {
  for (NodeId n : subtree_) {
    engine_.RemoveNode(n);
    for (LiveRelation* closure : Closures()) closure->RemoveNode(n);
  }
}

size_t Certifier::PruneLocked() {
  // Once failed, keep everything: the failure evidence (a cycle in some
  // maintained graph) must survive rebuilds, and pruning is only a memory
  // optimization for live sessions anyway.
  if (!engine_.certifiable()) return 0;
  size_t removed = 0;
  bool progress = true;
  // Removing one subtree can zero another's in-degrees, so iterate to a
  // fixpoint.  The worklist holds only sealed-but-unpruned roots (swap-
  // removed once pruned), so a pass costs O(live window), not O(every
  // root ever sealed) — the property the long-session soak asserts.
  while (progress) {
    progress = false;
    for (size_t idx = 0; idx < unpruned_sealed_.size();) {
      const NodeId root = unpruned_sealed_[idx];
      subtree_.assign(1, root);
      cs_.ForEachDescendant(root, [&](NodeId d) { subtree_.push_back(d); });
      if (!CanPrune(root)) {
        ++idx;
        continue;
      }
      RemoveSubtree();
      const Status released = cs_.ReleaseSubtree(root);
      COMPTX_CHECK(released.ok()) << released.ToString();
      removed += subtree_.size();
      unpruned_sealed_[idx] = unpruned_sealed_.back();
      unpruned_sealed_.pop_back();
      progress = true;  // the swapped-in root is re-examined at idx.
    }
  }
  if (removed > 0) {
    ++prune_passes_;
    CompactWindowsLocked();
  }
  return removed;
}

size_t Certifier::Prune() {
  std::lock_guard<std::mutex> lock(mu_);
  return PruneLocked();
}

CertifierVerdict Certifier::Verdict() const {
  std::lock_guard<std::mutex> lock(mu_);
  CertifierVerdict verdict;
  verdict.order = order_;
  verdict.certifiable = engine_.certifiable();
  verdict.failure = engine_.failure();
  return verdict;
}

bool Certifier::Certifiable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_.certifiable();
}

std::vector<NodeId> Certifier::SerialWitness() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!engine_.certifiable()) return {};
  std::vector<NodeId> roots;
  for (uint64_t i = roots_.begin(); i < roots_.end(); ++i) {
    if (cs_.HasNode(roots_[i])) roots.push_back(roots_[i]);
  }
  std::stable_sort(roots.begin(), roots.end(), [&](NodeId x, NodeId y) {
    return engine_.TopOrderKey(x) < engine_.TopOrderKey(y);
  });
  return roots;
}

CertifierStats Certifier::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CertifierStats stats;
  stats.events_accepted = events_accepted_;
  stats.events_rejected = events_rejected_;
  stats.rebuilds = rebuilds_;
  stats.prune_passes = prune_passes_;
  stats.pruned_nodes = cs_.NodeCount() - cs_.LiveNodeCount();
  stats.sealed_roots = sealed_root_count_;
  stats.commit_watermark = commit_watermark_;
  stats.live_nodes = cs_.LiveNodeCount();
  stats.window_span = cs_.NodeCount() - cs_.OldestLiveId();
  stats.observed_pairs = engine_.ObservedPairCount();
  stats.cc_edges = engine_.CcEdgeCount();
  stats.calc_edges = engine_.CalcEdgeCount();
  for (const LiveRelation* closure : Closures()) {
    stats.closure_pairs += closure->PairCount();
  }
  return stats;
}

}  // namespace comptx::online
