#ifndef COMPTX_STATICCHECK_ANALYZER_H_
#define COMPTX_STATICCHECK_ANALYZER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/composite_system.h"
#include "core/diagnostic.h"
#include "core/front.h"

namespace comptx::staticcheck {

/// Whole-configuration safety verdict of the static analyzer.
///
///   kSafe         — every execution of this configuration recorded in the
///                   system is Comp-C; the reduction can be skipped.
///   kUnsafe       — the execution is provably not Comp-C; the reduction
///                   can be skipped (a failure witness is attached).
///   kNeedsDynamic — no structural theorem applies; run the reduction.
///
/// SAFE/UNSAFE are *exact* (not conservative) on the shapes they fire
/// for: stack/fork/join configurations via Theorems 2-4, flat order-1
/// configurations (a disjoint union of one-level stacks, Theorem 2 per
/// component), and — for UNSAFE only — any configuration with a locally
/// conflict-inconsistent scheduler, whose serialization∪input cycle is
/// conflict-backed and therefore survives every pull-up into the front
/// where its transactions meet (Def 16 step 6 then fails).
enum class SafetyVerdict : uint8_t {
  kSafe,
  kUnsafe,
  kNeedsDynamic,
};

const char* SafetyVerdictToString(SafetyVerdict verdict);

/// Structural classification of the configuration driving the verdict.
enum class ConfigShape : uint8_t {
  kEmpty,       // no root transactions
  kStack,       // Def 21 (Theorem 2 applies)
  kFork,        // Def 23 (Theorem 3 applies)
  kJoin,        // Def 25 (Theorem 4 applies)
  kFlat,        // order 1, no invocations: disjoint union of 1-level stacks
  kTree,        // every schedule has at most one invoker, but no theorem
  kGeneralDag,  // some schedule is shared between invokers
};

const char* ConfigShapeToString(ConfigShape shape);

/// Why one scheduler does (or does not) admit a static verdict.
struct ScheduleExplanation {
  ScheduleId id;
  std::string name;
  uint32_t level = 0;

  /// More than one distinct schedule invokes this one (the invocation
  /// graph is a DAG, not a forest, at this node).
  bool shared = false;

  /// Executes transactions of more than one execution tree — a "meet"
  /// schedule, the only place cross-root orders are created (Fig 4's
  /// common schedule).
  bool meet = false;

  /// Conflict pairs whose operations belong to different execution trees —
  /// the orders a meet schedule exports across roots.  A meet schedule
  /// with zero cross-root conflicts is "covered": every cross-root pair
  /// commutes, so pull-up forgets all of its cross-root orders (Def 10.3)
  /// and it can never block a pull-up (the Fig 4 case cannot arise from
  /// it).
  size_t cross_root_conflicts = 0;

  /// The cross-root conflict pairs above whose members are both proper
  /// subtransactions, i.e., whose orders actually get pulled up (pairs of
  /// roots are already at the final level).  Nonzero is the Fig 4 hazard.
  size_t pulled_up_cross_conflicts = 0;

  /// Serialization ∪ weak-input order over T_S is acyclic.  Computed on
  /// the *effective* conflicts: an attached commutativity spec erases
  /// bit-level conflicts between commuting operations first.
  bool conflict_consistent = true;

  /// Of `cross_root_conflicts`, how many pairs the attached commutativity
  /// spec proves commuting.  Equal to cross_root_conflicts means the meet
  /// is semantically covered: every order it exports across roots is
  /// forgotten on pull-up.  Zero without a spec.
  size_t semantically_covered = 0;

  /// Explanation trail of the semantic analyzer: one line per cross-root
  /// conflict pair naming the operations, their ADT operation classes,
  /// and the table entry (or instance disjointness) that decides them.
  /// Filled only when the system has a spec and AnalyzerOptions::explain.
  std::vector<std::string> semantic_trail;

  /// One-line human-readable reason.
  std::string detail;
};

/// The full result of the static configuration analysis.
struct StaticAnalysis {
  /// False when CollectModelDiagnostics found errors; `diagnostics` then
  /// holds them and `verdict` is kNeedsDynamic (the theorems assume a
  /// well-formed system).
  bool well_formed = false;
  std::vector<Diagnostic> diagnostics;

  SafetyVerdict verdict = SafetyVerdict::kNeedsDynamic;
  ConfigShape shape = ConfigShape::kGeneralDag;

  /// True when the verdict was decided by the semantic commutativity rule
  /// (shared-bottom decomposition), i.e. the bit-level analyzer alone
  /// would have answered kNeedsDynamic.
  bool semantic = false;

  /// The order N of the composite system (0 when ill-formed).
  uint32_t order = 0;

  /// Whole-configuration explanation of the verdict.
  std::string reason;

  /// Per-scheduler findings, in schedule order.  For every kNeedsDynamic
  /// verdict this names the schedulers (shared, uncovered) that defeat the
  /// structural theorems.
  std::vector<ScheduleExplanation> schedules;

  /// For kUnsafe: the violating cycle, when a per-scheduler one exists
  /// (JCC ghost-graph violations span schedulers and carry no witness).
  std::optional<CycleWitness> witness;
};

/// Options controlling the analysis.
struct AnalyzerOptions {
  /// Skip CollectModelDiagnostics and trust the caller that `cs` is
  /// well formed (e.g., it was just validated by GenerateSystem).
  bool assume_valid = false;

  /// Fill `schedules` (and the UNSAFE witness) even when a structural
  /// theorem already decides the verdict.  The CLI wants the rows;
  /// verdict-only callers turn this off — the per-scheduler CC scan costs
  /// about as much as the theorem criterion itself.  Explanations are
  /// always computed when the verdict needs them (flat and general
  /// shapes).
  bool explain = true;
};

/// Statically analyzes the configuration of `cs`: validates (unless
/// `assume_valid`), classifies the shape, and decides SAFE / UNSAFE /
/// NEEDS_DYNAMIC with per-scheduler explanations.  Pure function of the
/// system; runs no reduction.
///
/// The verdict is exact with respect to `CheckCompC` under the paper's
/// semantics (forgetting enabled).  Under the E8 ablation (forgetting
/// disabled) it says nothing: Figure 4 is Comp-C only because of
/// forgetting.
StaticAnalysis AnalyzeConfiguration(const CompositeSystem& cs,
                                    const AnalyzerOptions& options = {});

/// Multi-line human-readable rendering of an analysis (the CLI --verdict
/// output): verdict, shape, order, reason, one line per scheduler.
std::string FormatStaticAnalysis(const StaticAnalysis& analysis);

}  // namespace comptx::staticcheck

#endif  // COMPTX_STATICCHECK_ANALYZER_H_
