#include "core/reduction.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/calculation.h"
#include "core/observed_order.h"
#include "util/string_util.h"

namespace comptx {

const char* ReductionFailureStepToString(ReductionFailureStep step) {
  switch (step) {
    case ReductionFailureStep::kCalculation:
      return "calculation";
    case ReductionFailureStep::kConflictConsistency:
      return "conflict_consistency";
  }
  return "unknown";
}

const Front& ReductionResult::FinalFront() const {
  COMPTX_CHECK(!fronts.empty()) << "no fronts kept";
  return fronts.back();
}

namespace {

/// Pulls the observed order of `prev` up into `next` (Def 10 points 2-4).
///
/// `rep` maps a grouped operation to its level-i transaction and every
/// other node to itself.  Same-schedule pairs that the schedule declares
/// non-conflicting are dropped when pulled up ("forgotten", Fig 4) unless
/// the ablation flag disables forgetting.
void PullUpObserved(const SystemContext& ctx, const Front& prev,
                    const std::unordered_map<NodeId, NodeId>& rep,
                    bool forgetting, Front& next) {
  auto rep_of = [&](NodeId x) {
    auto it = rep.find(x);
    return it == rep.end() ? x : it->second;
  };
  prev.observed.ForEach([&](NodeId a, NodeId b) {
    if (auto image = PullUpObservedPair(ctx.cs, a, b, rep_of(a), rep_of(b),
                                        forgetting)) {
      next.observed.Add(image->first, image->second);
    }
  });
}

/// Adds the serialization orders of the level-i schedules (Def 10.2): for
/// conflicting operations of distinct transactions ordered by the weak
/// output order, the parents become observed-ordered.
void AddScheduleSerializationOrders(const SystemContext& ctx,
                                    const std::vector<ScheduleId>& schedules,
                                    Front& next) {
  const CompositeSystem& cs = ctx.cs;
  for (ScheduleId s : schedules) {
    const Schedule& sched = cs.schedule(s);
    const Relation& closed_output = ctx.closed_weak_output[s.index()];
    sched.conflicts.ForEach([&](NodeId o1, NodeId o2) {
      if (cs.SemanticallyCommutes(o1, o2)) return;
      NodeId t1 = cs.node(o1).parent;
      NodeId t2 = cs.node(o2).parent;
      if (t1 == t2) return;
      if (closed_output.Contains(o1, o2)) next.observed.Add(t1, t2);
      if (closed_output.Contains(o2, o1)) next.observed.Add(t2, t1);
    });
  }
}

}  // namespace

Reducer::Reducer(const CompositeSystem& cs, const ReductionOptions& options)
    : options_(options), ctx_(std::make_unique<SystemContext>(cs)) {
  order_ = ctx_->ig.order;
  transactions_at_level_.resize(order_ + 1);
  schedules_at_level_.resize(order_ + 1);
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    const uint32_t level = ctx_->ig.schedule_level[s];
    schedules_at_level_[level].push_back(ScheduleId(s));
    for (NodeId txn : cs.schedule(ScheduleId(s)).transactions) {
      transactions_at_level_[level].push_back(txn);
    }
  }
}

StatusOr<Reducer> Reducer::Create(const CompositeSystem& cs,
                                  const ReductionOptions& options) {
  COMPTX_RETURN_IF_ERROR(cs.RequireWholeForest());
  if (options.validate) {
    COMPTX_RETURN_IF_ERROR(cs.Validate());
  }
  Reducer reducer(cs, options);
  reducer.current_ = MakeLevelZeroFront(*reducer.ctx_);
  if (auto violation = FindConflictConsistencyViolation(reducer.current_)) {
    reducer.failed_ = true;
    reducer.failure_ = ReductionFailure{
        0, ReductionFailureStep::kConflictConsistency, *violation};
  }
  return reducer;
}

const std::vector<NodeId>& Reducer::TransactionsAtLevel(uint32_t level) const {
  COMPTX_CHECK_LE(level, order_);
  return transactions_at_level_[level];
}

bool Reducer::Step() {
  COMPTX_CHECK(!Done()) << "Step() called on a finished reduction";
  const CompositeSystem& cs = ctx_->cs;
  const uint32_t level = current_.level + 1;
  const std::vector<NodeId>& groups = transactions_at_level_[level];

  // Def 16 step 1: every level-i transaction must admit a calculation.
  if (auto violation = FindCalculationViolation(*ctx_, current_, groups)) {
    failed_ = true;
    failure_ = ReductionFailure{level, ReductionFailureStep::kCalculation,
                                *violation};
    return false;
  }

  // Def 16 steps 2 & 5: replace the grouped operations by their
  // transactions; keep everything else (roots propagate).
  Front next;
  next.level = level;
  std::unordered_map<NodeId, NodeId> rep;
  std::unordered_set<NodeId> removed;
  for (NodeId txn : groups) {
    for (NodeId op : cs.node(txn).children) {
      rep.emplace(op, txn);
      removed.insert(op);
    }
  }
  for (NodeId node : current_.nodes) {
    if (removed.count(node) == 0) next.nodes.push_back(node);
  }
  next.nodes.insert(next.nodes.end(), groups.begin(), groups.end());
  std::sort(next.nodes.begin(), next.nodes.end());

  // Def 16 steps 3 & 4: pull up the observed order and conflicts; pairs
  // involving removed operations disappear with their operations.
  PullUpObserved(*ctx_, current_, rep, options_.forgetting, next);
  AddScheduleSerializationOrders(*ctx_, schedules_at_level_[level], next);
  ApplyLeafRuleObserved(*ctx_, next);
  ComputeGeneralizedConflicts(*ctx_, next);

  // Def 16 step 6: include the level-i input orders and check CC.
  ComputeFrontInputOrders(*ctx_, next);
  if (auto violation = FindConflictConsistencyViolation(next)) {
    failed_ = true;
    failure_ = ReductionFailure{
        level, ReductionFailureStep::kConflictConsistency, *violation};
    current_ = std::move(next);  // expose the offending front.
    return false;
  }

  current_ = std::move(next);
  return true;
}

StatusOr<ReductionResult> RunReduction(const CompositeSystem& cs,
                                       const ReductionOptions& options) {
  COMPTX_ASSIGN_OR_RETURN(Reducer reducer, Reducer::Create(cs, options));
  ReductionResult result;
  result.order = reducer.order();

  auto record_front = [&](const Front& front) {
    if (!options.keep_fronts) result.fronts.clear();
    result.fronts.push_back(front);
  };
  record_front(reducer.current());

  while (!reducer.Done()) {
    if (reducer.Step()) {
      record_front(reducer.current());
    } else {
      // On a CC failure the reducer exposes the offending partial front;
      // keep it for diagnostics when fronts are retained.
      const std::optional<ReductionFailure>& failure = reducer.failure();
      if (options.keep_fronts && failure.has_value() &&
          failure->step == ReductionFailureStep::kConflictConsistency &&
          failure->level > 0) {
        result.fronts.push_back(reducer.current());
      }
      break;
    }
  }

  result.comp_c = !reducer.Failed();
  result.failure = reducer.failure();
  if (result.comp_c) {
    // Theorem 1 sanity check: only root transactions remain.
    for (NodeId node : reducer.current().nodes) {
      COMPTX_CHECK(cs.node(node).IsRoot())
          << "non-root node " << cs.node(node).name << " in the level "
          << result.order << " front";
    }
  }
  return result;
}

}  // namespace comptx
