#include "online/certifier.h"

#include <algorithm>
#include <deque>
#include <tuple>

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
  return nodes_[id.index()].sealed;
}

void Certifier::MarkSealed(NodeId id) { nodes_[id.index()].sealed = true; }

void Certifier::CompactWindowsLocked() {
  nodes_.DropBefore(cs_.OldestLiveId());
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
  // Replay every closed pair, each order in (a, b) order.  All derived
  // structures are monotone functions of these facts (the conflict-
  // dependent rules consult the complete CON relations of cs_ at replay
  // time), so the result equals a fresh session's state.  A pair's
  // container is recovered from its source: the host schedule of an
  // output pair, the parent transaction of an intra pair.  The closed
  // weak output pairs of a source are its walk over the generators;
  // those with neither a leaf end nor a conflict are skipped, as
  // OnClosedWeakOutput would ignore them.
  walk_backward_.clear();  // the generators' sources, ascending
  weak_output_preds_.ForEach(
      [&](NodeId, NodeId a) { walk_backward_.push_back(a); });
  std::sort(walk_backward_.begin(), walk_backward_.end());
  walk_backward_.erase(
      std::unique(walk_backward_.begin(), walk_backward_.end()),
      walk_backward_.end());
  for (const NodeId a : walk_backward_) {
    const ScheduleId s = cs_.HostScheduleOf(a);
    walk_forward_.assign(1, a);  // unstamped: a is reached again on a cycle
    const uint32_t stamp = NextStamp();
    Walk(cs_.schedule(s).weak_output, &NodeSlot::forward, stamp, stamp,
         walk_forward_);
    std::sort(walk_forward_.begin() + 1, walk_forward_.end());
    const bool leaf_a = cs_.node(a).IsLeaf();
    for (size_t i = 1; i < walk_forward_.size(); ++i) {
      const NodeId b = walk_forward_[i];
      if (leaf_a || cs_.node(b).IsLeaf() || cs_.EffectiveConflict(s, a, b)) {
        engine_.OnClosedWeakOutput(s, a, b);
      }
    }
  }
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

uint32_t Certifier::NextStamp() {
  if (++walk_stamp_ == 0) {  // wrapped: no slot may keep a live stamp.
    for (uint64_t id = nodes_.begin(); id < nodes_.end(); ++id) {
      nodes_[id].forward = nodes_[id].backward = 0;
    }
    walk_stamp_ = 1;
  }
  return walk_stamp_;
}

void Certifier::Walk(const Relation& rows, uint32_t NodeSlot::*side,
                     uint32_t stamp, uint32_t stop, std::vector<NodeId>& out) {
  for (size_t i = 0; i < out.size(); ++i) {
    for (uint32_t w : rows.SuccessorIds(out[i])) {
      uint32_t& mark = nodes_[w].*side;
      if (mark == stamp || mark == stop) continue;
      mark = stamp;
      out.push_back(NodeId(w));
    }
  }
}

bool Certifier::ReachesByLongerPath(const Relation& generators, NodeId x,
                                    NodeId y, uint32_t stamp) {
  walk_forward_.assign(1, x);  // unstamped: x is reached again on a cycle
  for (size_t i = 0; i < walk_forward_.size(); ++i) {
    const NodeId v = walk_forward_[i];
    for (uint32_t w : generators.SuccessorIds(v)) {
      if (w == y.index()) {
        if (v == x) continue;  // the generator (x, y) itself
        return true;
      }
      uint32_t& mark = nodes_[w].forward;
      if (mark == stamp) continue;
      mark = stamp;
      walk_forward_.push_back(NodeId(w));
    }
  }
  return false;
}

bool Certifier::WeakOutputClosed(ScheduleId s, NodeId x, NodeId y) {
  if (weak_output_preds_.Contains(y, x)) return true;
  const Relation& generators = cs_.schedule(s).weak_output;
  if (generators.SuccessorIds(x).empty() ||
      weak_output_preds_.SuccessorIds(y).empty()) {
    return false;
  }
  return ReachesByLongerPath(generators, x, y, NextStamp());
}

void Certifier::RouteWeakOutput(ScheduleId s, NodeId a, NodeId b) {
  // Both stamps are taken first: a wrap inside NextStamp clears every
  // mark, so it must not fall between two walks.
  const uint32_t before = NextStamp();  // A and B below
  const uint32_t stamp = NextStamp();   // Q and P below
  // A = succ*(a) before the generator, stamped forward with `before`: the
  // walk never follows (a, b), also when it comes back to a on a cycle.
  // Reaching b means (a, b) was closed already and closes nothing new.
  const Relation& generators = cs_.schedule(s).weak_output;
  if (ReachesByLongerPath(generators, a, b, before)) return;
  // Each pair carries the first front holding both ends, where it is
  // routed first: batch tests the fronts bottom-up.
  const auto front = [&](NodeId x, NodeId y) {
    return std::max(engine_.SpanBegin(x), engine_.SpanBegin(y));
  };
  routed_.assign(1, {front(a, b), a, b});
  // The newly closed pairs lie in P × Q, P = {a} ∪ pred*(a) and
  // Q = {b} ∪ succ*(b).  A pair (x, y) there with a ⇝ y (y in A) or
  // x ⇝ b (x in B = pred*(b), stamped backward with `before`) was closed
  // before, and its handlers ran then, so only Q \ A and P \ B are
  // walked.  A is closed under successors and B under predecessors, so
  // the walks stop at them.
  walk_forward_.assign(1, b);
  nodes_[b.index()].forward = stamp;
  Walk(generators, &NodeSlot::forward, stamp, before, walk_forward_);
  bool walked_p = false;
  const auto walk_p = [&] {
    if (walked_p) return;
    walked_p = true;
    walk_backward_.assign(1, b);  // unstamped: b is in B only on a cycle
    Walk(weak_output_preds_, &NodeSlot::backward, before, before,
         walk_backward_);
    walk_backward_.assign(1, a);
    nodes_[a.index()].backward = stamp;
    Walk(weak_output_preds_, &NodeSlot::backward, stamp, before,
         walk_backward_);
  };
  if (options_.forgetting && cs_.node(a).IsLeaf() && cs_.node(b).IsLeaf()) {
    // Only the conflicting pairs: a path through the two leaves implies
    // the others.  Found from the conflict side, P walked only when a
    // peer other than a needs its membership.
    const SymmetricPairSet& conflicts = cs_.schedule(s).conflicts;
    for (const NodeId y : walk_forward_) {
      for (uint32_t peer : conflicts.PeerIds(y)) {
        const NodeId x(peer);
        if (x == a) {
          if (y == b) continue;  // the generator, queued above
        } else {
          walk_p();
          if (nodes_[peer].backward != stamp) continue;  // x not in P \ B
        }
        if (cs_.EffectiveConflict(s, x, y)) {
          routed_.push_back({front(x, y), x, y});
        }
      }
    }
  } else {
    walk_p();
    for (const NodeId x : walk_backward_) {
      const bool leaf_x = cs_.node(x).IsLeaf();
      for (const NodeId y : walk_forward_) {
        if (x == a && y == b) continue;
        if (leaf_x || cs_.node(y).IsLeaf() || cs_.EffectiveConflict(s, x, y)) {
          routed_.push_back({front(x, y), x, y});
        }
      }
    }
  }
  // Lowest front first, then (a, b) order: a (b) first, the rest of P
  // (Q) ascending.
  std::sort(routed_.begin(), routed_.end(),
            [&](const RoutedPair& p, const RoutedPair& q) {
              return std::tuple(p.front, p.x != a, p.x, p.y != b, p.y) <
                     std::tuple(q.front, q.x != a, q.x, q.y != b, q.y);
            });
  for (const RoutedPair& p : routed_) engine_.OnClosedWeakOutput(s, p.x, p.y);
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
      nodes_.push_back({});
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
      nodes_.push_back({});
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
      nodes_.push_back({});
      engine_.OnNodeAdded(leaf);
      return Status::OK();
    }
    case TraceEventKind::kConflict: {
      const NodeId a(e.a), b(e.b);
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(a));
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(b));
      COMPTX_RETURN_IF_ERROR(cs_.AddConflict(a, b));
      saw_relational_event_ = true;
      const ScheduleId host = cs_.HostScheduleOf(a);
      engine_.OnConflict(a, b, WeakOutputClosed(host, a, b),
                         WeakOutputClosed(host, b, a));
      return Status::OK();
    }
    case TraceEventKind::kWeakOutput:
    case TraceEventKind::kStrongOutput: {
      const NodeId a(e.a), b(e.b);
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(a));
      COMPTX_RETURN_IF_ERROR(CheckNotSealed(b));
      // A strong output pair is also a weak output pair (Def 1); the
      // decision procedure only consumes the closed weak output order, so
      // both kinds are generators of it.
      COMPTX_RETURN_IF_ERROR(e.kind == TraceEventKind::kWeakOutput
                                 ? cs_.AddWeakOutput(a, b)
                                 : cs_.AddStrongOutput(a, b));
      saw_relational_event_ = true;
      const ScheduleId host = cs_.HostScheduleOf(a);
      // A repeated generator closes nothing new.
      if (!weak_output_preds_.Contains(b, a)) RouteWeakOutput(host, a, b);
      weak_output_preds_.Add(b, a);
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
  nodes_.ExtendTo(next_node, {});
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
    // internal), nor in any closure or weak output generator: those
    // could later manufacture derived in-edges by transitivity without
    // any event naming `n`.  A closed weak output pair enters the subtree
    // from outside iff some generator does: the first generator of its
    // path that enters the subtree comes from outside.
    if (engine_.HasIncomingEdges(n, inside)) return false;
    for (const LiveRelation* closure : Closures()) {
      if (closure->HasPredecessorOutside(n, inside)) return false;
    }
    for (uint32_t x : weak_output_preds_.SuccessorIds(n)) {
      if (!inside(NodeId(x))) return false;
    }
  }
  return true;
}

void Certifier::RemoveSubtree() {
  for (NodeId n : subtree_) {
    engine_.RemoveNode(n);
    for (LiveRelation* closure : Closures()) closure->RemoveNode(n);
    // cs_.ReleaseSubtree drops the forward rows; every predecessor is
    // inside the subtree, whose rows go with it.
    if (cs_.node(n).parent.valid()) {
      for (uint32_t y :
           cs_.schedule(cs_.HostScheduleOf(n)).weak_output.SuccessorIds(n)) {
        weak_output_preds_.Remove(NodeId(y), n);
      }
    }
    weak_output_preds_.RemoveSource(n);
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
  stats.weak_output_generators = weak_output_preds_.PairCount();
  return stats;
}

}  // namespace comptx::online
