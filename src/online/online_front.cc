#include "online/online_front.h"

#include <algorithm>

#include "core/observed_order.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace comptx::online {

void OnlineFrontEngine::Reset(const CompositeSystem* cs,
                              std::vector<uint32_t> schedule_levels,
                              uint32_t order, bool forgetting) {
  cs_ = cs;
  schedule_levels_ = std::move(schedule_levels);
  order_ = order;
  forgetting_ = forgetting;
  level_.assign(order_ + 1, LevelState{});
  calc_.assign(order_ + 1, IncrementalCycleGraph{});
  strong_ = LiveRelation();
  failure_.reset();
}

uint32_t OnlineFrontEngine::SpanBegin(NodeId x) const {
  const Node& n = cs_->node(x);
  if (n.IsLeaf()) return 0;
  return schedule_levels_[n.owner_schedule.index()];
}

uint32_t OnlineFrontEngine::SpanEnd(NodeId x) const {
  const Node& n = cs_->node(x);
  if (n.IsRoot()) return order_;
  return schedule_levels_[cs_->HostScheduleOf(x).index()] - 1;
}

NodeId OnlineFrontEngine::Rep(NodeId x, uint32_t i) const {
  const Node& n = cs_->node(x);
  if (n.IsRoot()) return x;
  if (schedule_levels_[cs_->HostScheduleOf(x).index()] == i) return n.parent;
  return x;
}

void OnlineFrontEngine::FrontMembersOfSubtree(NodeId t, uint32_t j,
                                              std::vector<NodeId>& out) const {
  out.clear();
  if (j > SpanEnd(t)) return;
  if (InFront(t, j)) {
    out.push_back(t);
    return;
  }
  cs_->ForEachDescendant(t, [&](NodeId d) {
    if (InFront(d, j)) out.push_back(d);
  });
}

bool OnlineFrontEngine::BindingObserved(NodeId a, NodeId b) const {
  ScheduleId ha = cs_->HostScheduleOf(a);
  ScheduleId hb = cs_->HostScheduleOf(b);
  if (ha.valid() && ha == hb) {
    return cs_->EffectiveConflict(ha, a, b);
  }
  return true;  // cross-schedule pairs are observed-related by construction.
}

void OnlineFrontEngine::Fail(uint32_t level, OnlineFailure::Step step,
                             const std::vector<NodeId>& witness,
                             const std::string& what) {
  if (failure_) return;
  OnlineFailure f;
  f.level = level;
  f.step = step;
  f.witness = witness;
  std::string cycle;
  for (NodeId n : witness) {
    if (!cycle.empty()) cycle += " -> ";
    cycle += cs_->node(n).name;
  }
  f.description = StrCat(what, " [", cycle, "]");
  failure_ = std::move(f);
}

void OnlineFrontEngine::CcEdge(uint32_t j, NodeId a, NodeId b) {
  IncrementalCycleGraph& cc = level_[j].cc;
  if (!cc.AddEdge(a, b) && !failure_) {
    Fail(j, OnlineFailure::Step::kConflictConsistency, cc.cycle_witness(),
         StrCat("front level ", j, " is not conflict consistent"));
  }
}

void OnlineFrontEngine::CalcEdge(uint32_t i, NodeId a, NodeId b) {
  if (i < 1 || i > order_) return;
  NodeId ra = Rep(a, i);
  NodeId rb = Rep(b, i);
  const bool grouped = (ra != a) || (rb != b);
  if (ra == rb && grouped) {
    // Both endpoints collapse into one level-i transaction: the constraint
    // is internal to that block (Def 14 intra test).
    IntraEdge(i, ra, a, b);
    return;
  }
  IncrementalCycleGraph& g = calc_[i];
  if (!g.AddEdge(ra, rb) && !failure_) {
    Fail(i, OnlineFailure::Step::kCalculation, g.cycle_witness(),
         StrCat("no calculation at level ", i,
                ": block cycle prevents isolating the level ", i,
                " transactions"));
  }
}

void OnlineFrontEngine::IntraEdge(uint32_t i, NodeId p, NodeId a, NodeId b) {
  if (i < 1 || i > order_) return;
  IncrementalCycleGraph& g = calc_[i];
  if (!g.AddEdge(a, b) && !failure_) {
    Fail(i, OnlineFailure::Step::kCalculation, g.cycle_witness(),
         StrCat("no calculation for transaction ", cs_->node(p).name,
                ": the observed order contradicts its intra-transaction ",
                "order"));
  }
}

void OnlineFrontEngine::AddObserved(uint32_t j, NodeId a, NodeId b) {
  if (j > order_) return;
  if (!level_[j].observed.Add(a, b)) return;
  CcEdge(j, a, b);
  if (j + 1 > order_) return;
  // Calculation rule 2 at step j+1: the pair binds iff it conflicts.
  if (BindingObserved(a, b)) CalcEdge(j + 1, a, b);
  // Pull-up (Def 10 points 2-4) to front j+1, sharing the exact per-pair
  // logic with the batch reducer.
  if (auto image = PullUpObservedPair(*cs_, a, b, Rep(a, j + 1), Rep(b, j + 1),
                                      forgetting_)) {
    AddObserved(j + 1, image->first, image->second);
  }
}

void OnlineFrontEngine::OnNodeAdded(NodeId x) {
  const Node& n = cs_->node(x);
  if (n.IsRoot()) {
    level_[order_].cc.EnsureNode(x);
    return;
  }
  // Retroactive pull-down: existing strong constraints on any ancestor now
  // also constrain x (x joined that ancestor's subtree).
  const uint32_t x_begin = SpanBegin(x);
  const uint32_t x_end = SpanEnd(x);
  auto pull_down = [&](NodeId other, bool x_first) {
    const uint32_t hi = std::min(x_end, SpanEnd(other));
    for (uint32_t j = x_begin; j <= hi; ++j) {
      FrontMembersOfSubtree(other, j, members_v_);
      for (NodeId y : members_v_) {
        const auto [u, v] = x_first ? std::pair(x, y) : std::pair(y, x);
        CcEdge(j, u, v);
        CalcEdge(j + 1, u, v);
      }
    }
  };
  for (NodeId anc = n.parent;; anc = cs_->node(anc).parent) {
    for (uint32_t other : strong_.Successors(anc)) {
      pull_down(NodeId(other), true);
    }
    for (uint32_t other : strong_.Predecessors(anc)) {
      pull_down(NodeId(other), false);
    }
    if (cs_->node(anc).IsRoot()) break;
  }
}

void OnlineFrontEngine::OnConflict(NodeId a, NodeId b, bool weak_out_ab,
                                   bool weak_out_ba) {
  const ScheduleId s = cs_->HostScheduleOf(a);
  // A pair the spec proves commuting behaves like an undeclared conflict:
  // it binds nothing and its observed pairs stay forgettable.  (Semantic
  // events arriving after the conflict are handled by a certifier
  // Rebuild, not here.)
  if (cs_->SemanticallyCommutes(a, b)) return;
  const uint32_t level = schedule_levels_[s.index()];
  const uint32_t lo = std::max(SpanBegin(a), SpanBegin(b));
  const uint32_t hi = std::min(SpanEnd(a), SpanEnd(b));
  for (uint32_t j = lo; j <= hi; ++j) {
    // Calculation rule 3: conflicting pairs ordered by the schedule's
    // closed weak output order.
    if (weak_out_ab) CalcEdge(j + 1, a, b);
    if (weak_out_ba) CalcEdge(j + 1, b, a);
    // The conflict turns existing observed pairs binding (calculation
    // rule 2) and un-forgets their pull-up (Def 10 rule 3).
    const LiveRelation& observed = level_[j].observed;
    for (auto [x, y] : {std::pair(a, b), std::pair(b, a)}) {
      if (!observed.Contains(x, y)) continue;
      CalcEdge(j + 1, x, y);
      if (j + 1 <= order_) {
        if (auto image = PullUpObservedPair(*cs_, x, y, Rep(x, j + 1),
                                            Rep(y, j + 1), forgetting_)) {
          AddObserved(j + 1, image->first, image->second);
        }
      }
    }
  }
  // Serialization orders (Def 10.2): the parents become observed-ordered.
  NodeId pa = cs_->node(a).parent;
  NodeId pb = cs_->node(b).parent;
  if (pa != pb) {
    if (weak_out_ab) AddObserved(level, pa, pb);
    if (weak_out_ba) AddObserved(level, pb, pa);
  }
}

void OnlineFrontEngine::OnClosedWeakOutput(ScheduleId s, NodeId a, NodeId b) {
  const uint32_t level = schedule_levels_[s.index()];
  const uint32_t lo = std::max(SpanBegin(a), SpanBegin(b));
  const uint32_t hi = std::min(SpanEnd(a), SpanEnd(b));
  const bool leafy = cs_->node(a).IsLeaf() || cs_->node(b).IsLeaf();
  const bool con = cs_->EffectiveConflict(s, a, b);
  for (uint32_t j = lo; j <= hi; ++j) {
    // Leaf atomicity rule (Def 10 point 1).
    if (leafy) AddObserved(j, a, b);
    // Calculation rule 3 for an already-declared conflict.
    if (con) CalcEdge(j + 1, a, b);
  }
  if (con) {
    NodeId pa = cs_->node(a).parent;
    NodeId pb = cs_->node(b).parent;
    if (pa != pb) AddObserved(level, pa, pb);
  }
}

void OnlineFrontEngine::OnClosedWeak(NodeId u, NodeId v) {
  const uint32_t lo = std::max(SpanBegin(u), SpanBegin(v));
  const uint32_t hi = std::min(SpanEnd(u), SpanEnd(v));
  for (uint32_t j = lo; j <= hi; ++j) CcEdge(j, u, v);
}

void OnlineFrontEngine::OnClosedWeakIntra(NodeId a, NodeId b) {
  OnClosedWeak(a, b);
  const NodeId p = cs_->node(a).parent;
  // Def 14: the intra test of p includes its closed weak intra order.
  IntraEdge(schedule_levels_[cs_->node(p).owner_schedule.index()], p, a, b);
}

void OnlineFrontEngine::OnClosedStrong(NodeId u, NodeId v) {
  // A repeated pair was pulled down when first seen, and onto later
  // nodes by OnNodeAdded.
  if (!strong_.Add(u, v)) return;
  // Pull the constraint down onto every front (Def 16 / front strong
  // orders): all front pairs across the two disjoint subtrees, which are
  // both CC edges and calculation rule 1 edges at the next step.
  const uint32_t hi = std::min(SpanEnd(u), SpanEnd(v));
  for (uint32_t j = 0; j <= hi; ++j) {
    FrontMembersOfSubtree(u, j, members_u_);
    if (members_u_.empty()) continue;
    FrontMembersOfSubtree(v, j, members_v_);
    for (NodeId x : members_u_) {
      for (NodeId y : members_v_) {
        CcEdge(j, x, y);
        CalcEdge(j + 1, x, y);
      }
    }
  }
}

uint64_t OnlineFrontEngine::TopOrderKey(NodeId root) const {
  return level_[order_].cc.OrderKey(root);
}

void OnlineFrontEngine::RemoveNode(NodeId n) {
  const uint32_t begin = SpanBegin(n);
  const uint32_t end = SpanEnd(n);
  for (uint32_t j = begin; j <= end; ++j) {
    level_[j].observed.RemoveNode(n);
    level_[j].cc.RemoveNode(n);
  }
  for (uint32_t i = begin; i <= LastCalcStep(end); ++i) {
    calc_[i].RemoveNode(n);
  }
  strong_.RemoveNode(n);
}

void OnlineFrontEngine::DropBefore(uint32_t id) {
  for (LevelState& l : level_) l.cc.DropBefore(id);
  for (IncrementalCycleGraph& g : calc_) g.DropBefore(id);
}

size_t OnlineFrontEngine::ObservedPairCount() const {
  size_t n = 0;
  for (const LevelState& l : level_) n += l.observed.PairCount();
  return n;
}

size_t OnlineFrontEngine::CcEdgeCount() const {
  size_t n = 0;
  for (const LevelState& l : level_) n += l.cc.EdgeCount();
  return n;
}

size_t OnlineFrontEngine::CalcEdgeCount() const {
  size_t n = 0;
  for (const IncrementalCycleGraph& g : calc_) n += g.EdgeCount();
  return n;
}

}  // namespace comptx::online
