#include "staticcheck/analyzer.h"

#include <utility>

#include "core/invocation_graph.h"
#include "core/validate.h"
#include "criteria/conflict_consistency.h"
#include "criteria/fcc.h"
#include "criteria/jcc.h"
#include "criteria/scc.h"
#include "util/string_util.h"

namespace comptx::staticcheck {

const char* SafetyVerdictToString(SafetyVerdict verdict) {
  switch (verdict) {
    case SafetyVerdict::kSafe:
      return "SAFE";
    case SafetyVerdict::kUnsafe:
      return "UNSAFE";
    case SafetyVerdict::kNeedsDynamic:
      return "NEEDS_DYNAMIC";
  }
  return "?";
}

const char* ConfigShapeToString(ConfigShape shape) {
  switch (shape) {
    case ConfigShape::kEmpty:
      return "empty";
    case ConfigShape::kStack:
      return "stack";
    case ConfigShape::kFork:
      return "fork";
    case ConfigShape::kJoin:
      return "join";
    case ConfigShape::kFlat:
      return "flat";
    case ConfigShape::kTree:
      return "tree";
    case ConfigShape::kGeneralDag:
      return "general-dag";
  }
  return "?";
}

namespace {

/// One trail line for a cross-root conflict pair: which rule of the
/// commutativity spec decides it, e.g.
///   "t3.inc / t7.inc: counter.inc x counter.inc -> commutes"
std::string SemanticTrailLine(const CompositeSystem& cs, NodeId a, NodeId b) {
  const Node& na = cs.node(a);
  const Node& nb = cs.node(b);
  const CommutativitySpec* spec = cs.spec();
  std::string line = StrCat(na.name, " / ", nb.name, ": ");
  if (na.sem_class == kInvalidIndex || nb.sem_class == kInvalidIndex) {
    return StrCat(line, "untagged operation -> conflicts (no table entry "
                  "applies)");
  }
  const std::string ca = spec->ClassLabel(na.sem_class);
  const std::string cb = spec->ClassLabel(nb.sem_class);
  if (na.sem_instance != nb.sem_instance) {
    return StrCat(line, ca, "#", na.sem_instance, " x ", cb, "#",
                  nb.sem_instance, " -> distinct instances commute");
  }
  const CommuteEntry entry = spec->Lookup(na.sem_class, nb.sem_class);
  return StrCat(line, ca, " x ", cb, " -> table says ",
                CommuteEntryToString(entry));
}

/// True iff the system carries any strong order (output, input, or
/// intra).  Strong pairs are pulled down across subtrees and are the one
/// mechanism that couples different hosts' observed orders at low levels,
/// so the semantic shared-bottom rule refuses to fire in their presence.
bool HasStrongOrders(const CompositeSystem& cs) {
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    const Schedule& sched = cs.schedule(ScheduleId(s));
    if (sched.strong_output.PairCount() > 0) return true;
    if (sched.strong_input.PairCount() > 0) return true;
  }
  return !cs.strong_intra().empty();
}

/// Fills per-scheduler explanations: sharing, cross-root conflict
/// coverage, local conflict consistency, and the first CC violation
/// witness found (schedule order).
void ExplainSchedules(const CompositeSystem& cs,
                      const InvocationGraphResult& ig,
                      StaticAnalysis& analysis) {
  for (size_t si = 0; si < cs.ScheduleCount(); ++si) {
    const ScheduleId sid(static_cast<uint32_t>(si));
    ScheduleExplanation ex;
    ex.id = sid;
    ex.name = cs.schedule(sid).name;
    ex.level = ig.schedule_level[si];
    const std::vector<ScheduleId> invokers = cs.InvokersOf(sid);
    ex.shared = invokers.size() > 1;
    ex.meet = cs.RootsServed(sid) > 1;
    const std::vector<std::pair<NodeId, NodeId>> cross =
        cs.CrossRootConflicts(sid);
    ex.cross_root_conflicts = cross.size();
    for (const auto& [a, b] : cross) {
      if (!cs.node(a).IsRoot() && !cs.node(b).IsRoot()) {
        ++ex.pulled_up_cross_conflicts;
      }
      if (cs.SemanticallyCommutes(a, b)) ++ex.semantically_covered;
      if (cs.HasSpec()) {
        ex.semantic_trail.push_back(SemanticTrailLine(cs, a, b));
      }
    }
    if (auto violation = criteria::FindScheduleCCViolation(cs, sid)) {
      ex.conflict_consistent = false;
      ex.detail = StrCat("not conflict consistent: ",
                         violation->description);
      if (!analysis.witness.has_value()) {
        analysis.witness = std::move(*violation);
      }
    } else if (ex.meet && ex.pulled_up_cross_conflicts > 0 &&
               ex.semantically_covered == ex.cross_root_conflicts) {
      ex.detail = StrCat("meet schedule; all ", ex.cross_root_conflicts,
                         " cross-root conflict pair(s) semantically commute "
                         "(spec-covered): every exported order is forgotten "
                         "on pull-up");
    } else if (ex.meet && ex.pulled_up_cross_conflicts > 0) {
      ex.detail = StrCat("meet schedule with ", ex.pulled_up_cross_conflicts,
                         " pulled-up cross-root conflict pair(s): pull-up "
                         "can forget orders between them (Fig 4 hazard)");
    } else if (ex.meet) {
      ex.detail = "meet schedule but fully commuting across roots: "
                  "cannot block a pull-up";
    } else {
      ex.detail = "serves one execution tree; locally conflict consistent";
    }
    analysis.schedules.push_back(std::move(ex));
  }
}

}  // namespace

StaticAnalysis AnalyzeConfiguration(const CompositeSystem& cs,
                                    const AnalyzerOptions& options) {
  StaticAnalysis analysis;
  if (!options.assume_valid) {
    analysis.diagnostics = CollectModelDiagnostics(cs);
    if (HasErrors(analysis.diagnostics)) {
      analysis.well_formed = false;
      analysis.verdict = SafetyVerdict::kNeedsDynamic;
      analysis.reason =
          "system violates the model rules of Defs 2-4; fix the error "
          "diagnostics first";
      return analysis;
    }
  }
  analysis.well_formed = true;

  // Validation passed, so the invocation graph is acyclic and buildable.
  auto ig = BuildInvocationGraph(cs);
  if (!ig.ok()) {
    analysis.well_formed = false;
    analysis.verdict = SafetyVerdict::kNeedsDynamic;
    analysis.reason = ig.status().message();
    return analysis;
  }
  analysis.order = ig->order;

  if (cs.Roots().empty()) {
    analysis.shape = ConfigShape::kEmpty;
    analysis.verdict = SafetyVerdict::kSafe;
    analysis.reason = "no root transactions: trivially Comp-C";
    return analysis;
  }

  // Theorems 2-4: on stack / fork / join shapes the per-scheduler
  // criterion decides Comp-C exactly, in both directions.  These run
  // before the explanation scan so a theorem-decided sweep item pays only
  // the criterion, not a second per-scheduler CC pass.
  auto decided = [&](SafetyVerdict verdict) {
    analysis.verdict = verdict;
    if (options.explain) ExplainSchedules(cs, *ig, analysis);
    return analysis;
  };
  if (criteria::IsStackSystem(cs)) {
    analysis.shape = ConfigShape::kStack;
    auto scc = criteria::IsStackConflictConsistent(cs);
    if (scc.ok()) {
      analysis.reason =
          *scc ? "stack configuration, every scheduler conflict consistent "
                 "(Theorem 2)"
               : "stack configuration with a conflict-inconsistent "
                 "scheduler (Theorem 2)";
      return decided(*scc ? SafetyVerdict::kSafe : SafetyVerdict::kUnsafe);
    }
  } else if (criteria::IsForkSystem(cs)) {
    analysis.shape = ConfigShape::kFork;
    auto fcc = criteria::IsForkConflictConsistent(cs);
    if (fcc.ok()) {
      analysis.reason =
          *fcc ? "fork configuration, top and branch schedulers conflict "
                 "consistent (Theorem 3)"
               : "fork configuration with a conflict-inconsistent "
                 "scheduler (Theorem 3)";
      return decided(*fcc ? SafetyVerdict::kSafe : SafetyVerdict::kUnsafe);
    }
  } else if (criteria::IsJoinSystem(cs)) {
    analysis.shape = ConfigShape::kJoin;
    auto jcc = criteria::IsJoinConflictConsistent(cs);
    if (jcc.ok()) {
      analysis.reason =
          *jcc ? "join configuration, ghost graph and schedulers "
                 "consistent (Theorem 4)"
               : "join configuration violating join conflict consistency "
                 "(Theorem 4)";
      return decided(*jcc ? SafetyVerdict::kSafe : SafetyVerdict::kUnsafe);
    }
  }

  ExplainSchedules(cs, *ig, analysis);
  bool all_cc = true;
  for (const ScheduleExplanation& ex : analysis.schedules) {
    all_cc = all_cc && ex.conflict_consistent;
  }

  // Flat configurations (order 1, no invocation edges): a disjoint union
  // of one-level stacks.  No observed order ever crosses schedulers, so
  // Comp-C decomposes into per-scheduler conflict consistency (Theorem 2
  // applied per component).
  if (analysis.order <= 1) {
    analysis.shape = ConfigShape::kFlat;
    analysis.verdict =
        all_cc ? SafetyVerdict::kSafe : SafetyVerdict::kUnsafe;
    analysis.reason =
        all_cc ? "flat configuration (order 1): every scheduler conflict "
                 "consistent, no cross-scheduler constraints exist"
               : "flat configuration with a conflict-inconsistent "
                 "scheduler";
    return analysis;
  }

  // General configurations.  A locally conflict-inconsistent scheduler is
  // decisive: its serialization∪input cycle is conflict-backed, so
  // forgetting never drops it and its pull-up image reaches the front
  // where the scheduler's transactions meet — the reduction must fail
  // (Def 16 step 6, or Def 14 when the cycle collapses into one block).
  bool shared = false;
  size_t hazards = 0;
  for (const ScheduleExplanation& ex : analysis.schedules) {
    shared = shared || ex.shared;
    if (ex.meet && ex.pulled_up_cross_conflicts > 0) ++hazards;
  }
  analysis.shape = shared ? ConfigShape::kGeneralDag : ConfigShape::kTree;
  if (!all_cc) {
    analysis.verdict = SafetyVerdict::kUnsafe;
    analysis.reason =
        "a scheduler is locally conflict inconsistent; the conflict-backed "
        "cycle survives every pull-up, so no reduction can succeed";
    return analysis;
  }

  // Semantic shared-bottom rule.  With a commutativity spec attached, a
  // configuration the bit-level theorems cannot cover is still provably
  // SAFE when it decomposes into per-root invocation chains over
  // bottom-level meet schedules whose cross-root conflicts all commute
  // semantically:
  //   - no strong orders exist anywhere, so CollectPulledDownPairs never
  //     couples different roots' subtrees;
  //   - every meet schedule sits at level 1 and is fully spec-covered, so
  //     each cross-root order it exports is forgotten on the level-1
  //     pull-up (Def 10.2 with the effective conflict relation) and its
  //     own CC check (serialization ∪ input over T_S, semantic) is
  //     exactly the level-1 front consistency test;
  //   - every other schedule serves one root and forms a chain, so from
  //     level 2 on the fronts are vertex-disjoint unions of per-root
  //     stacks and Theorem 2 applies per root (local CC suffices).
  // all_cc holds here (the UNSAFE branch returned above), so the verdict
  // is SAFE whenever the shape conditions hold.
  if (cs.HasSpec() && !HasStrongOrders(cs)) {
    // Distinct invoked schedules per invoker (inert schedules excluded).
    std::vector<size_t> invokee_count(cs.ScheduleCount(), 0);
    for (uint32_t t = 0; t < cs.ScheduleCount(); ++t) {
      if (cs.schedule(ScheduleId(t)).transactions.empty()) continue;
      for (ScheduleId h : cs.InvokersOf(ScheduleId(t))) {
        ++invokee_count[h.index()];
      }
    }
    bool decomposes = true;
    size_t covered_meets = 0;
    for (const ScheduleExplanation& ex : analysis.schedules) {
      if (cs.schedule(ex.id).transactions.empty()) continue;
      if (ex.meet) {
        if (ex.level != 1 ||
            ex.semantically_covered != ex.cross_root_conflicts) {
          decomposes = false;
          break;
        }
        ++covered_meets;
      } else if (ex.shared || invokee_count[ex.id.index()] > 1) {
        decomposes = false;
        break;
      }
    }
    if (decomposes) {
      analysis.semantic = true;
      analysis.verdict = SafetyVerdict::kSafe;
      analysis.reason = StrCat(
          "semantic shared-bottom decomposition: ", covered_meets,
          " bottom-level meet schedule(s) fully covered by the "
          "commutativity spec, per-root chains conflict consistent "
          "(Theorem 2 per root; cross-root orders all forgotten on "
          "pull-up)");
      return analysis;
    }
  }

  analysis.verdict = SafetyVerdict::kNeedsDynamic;
  analysis.reason = StrCat(
      "no structural theorem covers this ", ConfigShapeToString(analysis.shape),
      " of order ", analysis.order, ": ", hazards,
      " scheduler(s) carry cross-root conflicts whose pulled-up orders only "
      "the level-by-level reduction can check");
  return analysis;
}

std::string FormatStaticAnalysis(const StaticAnalysis& analysis) {
  std::string out =
      StrCat("verdict: ", SafetyVerdictToString(analysis.verdict),
             " (shape ", ConfigShapeToString(analysis.shape), ", order ",
             analysis.order, ")\n  ", analysis.reason, "\n");
  for (const ScheduleExplanation& ex : analysis.schedules) {
    out = StrCat(out, "  schedule ", ex.name, " (level ", ex.level,
                 "): ", ex.detail, "\n");
    for (const std::string& line : ex.semantic_trail) {
      out = StrCat(out, "    ", line, "\n");
    }
  }
  if (analysis.witness.has_value()) {
    out = StrCat(out, "  witness: ", analysis.witness->description, "\n");
  }
  return out;
}

}  // namespace comptx::staticcheck
