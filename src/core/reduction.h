#ifndef COMPTX_CORE_REDUCTION_H_
#define COMPTX_CORE_REDUCTION_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/front.h"
#include "util/status_or.h"

namespace comptx {

/// Which construction step of Def 16 failed.
enum class ReductionFailureStep {
  /// Step 1: some level-i transaction admits no calculation (Def 14); the
  /// execution cannot be untangled at this level (paper Fig 3).
  kCalculation,
  /// Step 6: the constructed front is not conflict consistent (Def 13).
  kConflictConsistency,
};

const char* ReductionFailureStepToString(ReductionFailureStep step);

/// Diagnostic information for a failed reduction.
struct ReductionFailure {
  /// The level of the front whose construction failed (1-based; 0 means
  /// the level 0 front itself was inconsistent).
  uint32_t level = 0;
  ReductionFailureStep step = ReductionFailureStep::kCalculation;
  CycleWitness witness;
};

/// Options controlling the reduction.
struct ReductionOptions {
  /// Validate the composite system (Defs 2-4) before reducing.  Disable
  /// only when the caller has already validated.
  bool validate = true;

  /// Keep every intermediate front in the result (needed for figure
  /// regeneration and tests; costs memory on large systems).
  bool keep_fronts = true;

  /// Implement Def 10's "forgetting": an observed order between
  /// operations of one common schedule that declares them non-conflicting
  /// is dropped when pulled up (paper Fig 4).  Disabling this is the E8
  /// ablation: every observed order propagates, as in conventional
  /// multilevel serializability.
  bool forgetting = true;
};

/// Outcome of the level-by-level reduction (Def 16 + Theorem 1).
struct ReductionResult {
  /// True iff the reduction reached a level-N front, i.e., the composite
  /// schedule is Comp-C (Theorem 1).
  bool comp_c = false;

  /// The order N of the system (maximum schedule level).
  uint32_t order = 0;

  /// The constructed fronts, level 0 upward.  If the reduction failed, the
  /// last entry is the deepest successfully constructed front, or the
  /// offending front of a level > 0 CC failure.  When options.keep_fronts
  /// is false it holds one front: the final one on success, else the
  /// deepest that passed its checks (the level-0 front itself when that
  /// one fails).
  std::vector<Front> fronts;

  /// Set iff !comp_c.
  std::optional<ReductionFailure> failure;

  /// The final front (level N) when comp_c; undefined content otherwise.
  const Front& FinalFront() const;
};

/// Runs the stepwise reduction of Def 16 on `cs`: builds the level 0 front
/// (all leaves), then per level i replaces the operations of every level-i
/// transaction by the transaction, pulling observed orders and conflicts up
/// (Defs 10-11) and checking calculations (Def 14) and conflict consistency
/// (Def 13) along the way.
///
/// Status errors report malformed input (validation failures); a
/// well-formed but incorrect execution yields an OK status with
/// result.comp_c == false and a failure witness.
StatusOr<ReductionResult> RunReduction(const CompositeSystem& cs,
                                       const ReductionOptions& options = {});

/// Incremental reduction driver: the same Def 16 machinery as
/// RunReduction, one level at a time, exposing each front as it is
/// constructed — for interactive exploration, visualization and tests
/// that inspect intermediate state.
///
/// The Reducer keeps references into `cs`; the system must outlive it and
/// must not be mutated while reducing.
class Reducer {
 public:
  /// Validates `cs` (unless options.validate is false) and builds the
  /// level 0 front.  A level-0 conflict-consistency violation is reported
  /// through Failed(), not through the Status.
  static StatusOr<Reducer> Create(const CompositeSystem& cs,
                                  const ReductionOptions& options = {});

  Reducer(Reducer&&) = default;
  Reducer& operator=(Reducer&&) = delete;

  /// The order N of the composite system.
  uint32_t order() const { return order_; }

  /// The most recently constructed front (level 0 after Create()).
  const Front& current() const { return current_; }

  /// True when no further Step() is possible: either the level-N front
  /// was reached (success) or a step failed.
  bool Done() const { return failed_ || current_.level >= order_; }

  /// True iff the reduction failed; see failure() for the diagnosis.
  bool Failed() const { return failed_; }
  const std::optional<ReductionFailure>& failure() const { return failure_; }

  /// Moves out the deepest front that passed its checks: current(), or,
  /// after a failed level > 0 conflict-consistency check, the front below
  /// the offending one.  The reducer must not be used afterwards.
  Front TakeLastGoodFront() &&;

  /// The transactions that will be (or were) grouped at `level`.
  const std::vector<NodeId>& TransactionsAtLevel(uint32_t level) const;

  /// Performs one level step (Def 16).  Returns true and advances
  /// current() on success; returns false (and records failure()) when the
  /// calculation or CC check fails.  Must not be called when Done().
  bool Step();

 private:
  Reducer(const CompositeSystem& cs, const ReductionOptions& options);

  ReductionOptions options_;
  std::unique_ptr<SystemContext> ctx_;
  uint32_t order_ = 0;
  std::vector<std::vector<NodeId>> transactions_at_level_;
  std::vector<std::vector<ScheduleId>> schedules_at_level_;
  /// Per node id: the level's transaction of a grouped operation, else
  /// invalid.  Filled and cleared within each Step().
  std::vector<NodeId> rep_;
  Front current_;
  /// The front below current() after a failed level > 0 CC check.
  Front previous_;
  bool failed_ = false;
  std::optional<ReductionFailure> failure_;
};

}  // namespace comptx

#endif  // COMPTX_CORE_REDUCTION_H_
