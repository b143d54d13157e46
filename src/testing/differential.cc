#include "testing/differential.h"

#include <algorithm>

#include "analysis/sweep.h"
#include "core/correctness.h"
#include "core/serial_front.h"
#include "criteria/fcc.h"
#include "criteria/jcc.h"
#include "criteria/oracle.h"
#include "criteria/scc.h"
#include "online/certifier.h"
#include "staticcheck/analyzer.h"
#include "testing/events.h"
#include "util/string_util.h"
#include "workload/event_schema.h"
#include "workload/trace.h"

namespace comptx::testing {

const char* InjectedBugToString(InjectedBug bug) {
  switch (bug) {
    case InjectedBug::kNone:
      return "none";
    case InjectedBug::kFlipOracle:
      return "flip-oracle";
    case InjectedBug::kFlipOnline:
      return "flip-online";
    case InjectedBug::kFlipCriteria:
      return "flip-criteria";
    case InjectedBug::kFlipStatic:
      return "flip-static";
    case InjectedBug::kFlipCommutes:
      return "flip-commutes";
  }
  return "unknown";
}

std::string DifferentialReport::Summary() const {
  std::string out;
  for (const Disagreement& d : disagreements) {
    if (!out.empty()) out += "; ";
    out += StrCat(d.check, ": ", d.detail);
  }
  return out;
}

namespace {

const char* Verdict(bool b) { return b ? "correct" : "incorrect"; }

/// Theorem 1 "if" direction on the accepted execution: the witness must be
/// a permutation of the roots whose serial front level-N-contains the
/// reduced one.
void CheckSerialWitness(const CompositeSystem& cs, const CompCResult& batch,
                        DifferentialReport& report) {
  auto add = [&](std::string detail) {
    report.disagreements.push_back(
        {"batch-vs-serial-front", std::move(detail)});
  };
  std::vector<NodeId> roots = cs.Roots();
  std::vector<NodeId> witness = batch.serial_order;
  std::sort(roots.begin(), roots.end());
  std::sort(witness.begin(), witness.end());
  if (roots != witness) {
    add("serial witness is not a permutation of the roots");
    return;
  }
  const Front& final_front = batch.reduction.FinalFront();
  Front serial = MakeSerialFront(final_front, batch.serial_order);
  if (!IsSerialFront(serial)) {
    add("witness-induced front is not serial (Def 17)");
  } else if (!LevelContains(serial, final_front)) {
    add("serial front does not level-N-contain the final front (Def 19)");
  }
}

void CheckOnline(const CompositeSystem& cs, const CompCResult& batch,
                 const DifferentialOptions& options,
                 DifferentialReport& report) {
  auto events = SystemToEvents(cs);
  if (!events.ok()) {
    report.disagreements.push_back(
        {"online-ingest",
         StrCat("trace serialization failed: ", events.status().message())});
    return;
  }
  // One Certifier per trace is the supported granularity, not a missed
  // reuse: a certifier is a single-execution session (its composite
  // system is append-only, so feeding it a second trace would certify the
  // union).  Long-lived multi-trace serving reuses contexts one level up
  // instead — service::SessionManager keeps one session per execution and
  // reuses the server's queues, workers and metrics across all of them.
  online::Certifier certifier;
  std::vector<bool> online_verdicts;
  online_verdicts.reserve(events->size());
  for (size_t i = 0; i < events->size(); ++i) {
    Status status = certifier.Ingest((*events)[i]);
    if (!status.ok()) {
      report.disagreements.push_back(
          {"online-ingest",
           StrCat("event ", i + 1, " (",
                  workload::FormatTraceEvent((*events)[i]),
                  ") of a valid system rejected: ", status.message())});
      return;
    }
    online_verdicts.push_back(certifier.Certifiable());
  }
  bool final_verdict = certifier.Certifiable();
  if (options.inject == InjectedBug::kFlipOnline) {
    final_verdict = !final_verdict;
    if (!online_verdicts.empty()) {
      online_verdicts.back() = final_verdict;
    }
  }
  if (final_verdict != batch.correct) {
    report.disagreements.push_back(
        {"batch-vs-online",
         StrCat("batch says ", Verdict(batch.correct), ", online says ",
                Verdict(final_verdict))});
    return;
  }
  if (options.prefix_event_limit == 0 ||
      events->size() > options.prefix_event_limit) {
    return;
  }
  ReductionOptions reduction;
  reduction.keep_fronts = false;
  auto prefix = analysis::BatchPrefixVerdicts(*events, reduction);
  if (!prefix.ok()) {
    report.disagreements.push_back(
        {"batch-prefix",
         StrCat("batch prefix checker failed on accepted events: ",
                prefix.status().message())});
    return;
  }
  for (size_t i = 0; i < events->size(); ++i) {
    if ((*prefix)[i] != online_verdicts[i]) {
      report.disagreements.push_back(
          {"batch-vs-online-prefix",
           StrCat("prefix ", i + 1, " (",
                  workload::FormatTraceEvent((*events)[i]), "): batch says ",
                  Verdict((*prefix)[i]), ", online says ",
                  Verdict(online_verdicts[i]))});
      return;
    }
  }
}

Status CheckOracle(const CompositeSystem& cs, const CompCResult& batch,
                   const DifferentialOptions& options, bool single_meet,
                   DifferentialReport& report) {
  COMPTX_ASSIGN_OR_RETURN(bool oracle,
                          criteria::HierarchicalSerializabilityOracle(cs));
  if (options.inject == InjectedBug::kFlipOracle) oracle = !oracle;
  if (batch.correct && !oracle) {
    report.disagreements.push_back(
        {"batch-vs-oracle",
         "Comp-C accepted but the oracle finds no serial forest execution "
         "(soundness violation)"});
  } else if (single_meet && oracle != batch.correct) {
    report.disagreements.push_back(
        {"batch-vs-oracle",
         StrCat("single-meet configuration: batch says ",
                Verdict(batch.correct), ", oracle says ", Verdict(oracle))});
  }
  return Status::OK();
}

Status CheckCriteria(const CompositeSystem& cs, const CompCResult& batch,
                     const DifferentialOptions& options, bool is_stack,
                     bool is_fork, bool is_join, DifferentialReport& report) {
  const bool flip = options.inject == InjectedBug::kFlipCriteria;
  auto compare = [&](const char* check, const char* theorem,
                     bool verdict) {
    if (flip) verdict = !verdict;
    if (verdict != batch.correct) {
      report.disagreements.push_back(
          {check, StrCat(theorem, " violated: batch says ",
                         Verdict(batch.correct), ", criterion says ",
                         Verdict(verdict))});
    }
  };
  if (is_stack) {
    COMPTX_ASSIGN_OR_RETURN(bool scc, criteria::IsStackConflictConsistent(cs));
    compare("batch-vs-scc", "Theorem 2 (SCC = Comp-C on stacks)", scc);
  }
  if (is_fork) {
    COMPTX_ASSIGN_OR_RETURN(bool fcc, criteria::IsForkConflictConsistent(cs));
    compare("batch-vs-fcc", "Theorem 3 (FCC = Comp-C on forks)", fcc);
  }
  if (is_join) {
    COMPTX_ASSIGN_OR_RETURN(bool jcc, criteria::IsJoinConflictConsistent(cs));
    compare("batch-vs-jcc", "Theorem 4 (JCC = Comp-C on joins)", jcc);
  }
  return Status::OK();
}

/// The static analyzer's SAFE/UNSAFE verdicts claim exactness; hold them
/// to the batch reduction whenever the analyzer decides.
void CheckStatic(const CompositeSystem& cs, const CompCResult& batch,
                 const DifferentialOptions& options,
                 DifferentialReport& report) {
  staticcheck::AnalyzerOptions analyzer_options;
  analyzer_options.assume_valid = true;  // CheckConformance validated.
  analyzer_options.explain = false;      // only the verdict is compared
  staticcheck::StaticAnalysis analysis =
      staticcheck::AnalyzeConfiguration(cs, analyzer_options);
  if (analysis.verdict == staticcheck::SafetyVerdict::kNeedsDynamic) return;
  bool static_safe = analysis.verdict == staticcheck::SafetyVerdict::kSafe;
  if (options.inject == InjectedBug::kFlipStatic) {
    static_safe = !static_safe;
  }
  if (static_safe != batch.correct) {
    report.disagreements.push_back(
        {"batch-vs-static",
         StrCat("static analyzer (shape ",
                staticcheck::ConfigShapeToString(analysis.shape),
                ") says ", Verdict(static_safe), ", batch says ",
                Verdict(batch.correct), "; reason: ", analysis.reason)});
  }
}

/// The semantic conflict layer is a pure mask: EffectiveConflict(s, a, b)
/// is the declared bit minus spec-proven commutation.  So a clone whose
/// raw bits ARE the masked set — every erased pair's conflict event
/// dropped, no spec attached — must reduce to the identical verdict.  A
/// mismatch means some decision path consulted raw bits where the mask
/// applies (or applied the mask twice).  kFlipCommutes keeps the first
/// erased pair in the clone, modeling exactly that bug.
void CheckSemanticMask(const CompositeSystem& cs, const CompCResult& batch,
                       const DifferentialOptions& options,
                       DifferentialReport& report) {
  if (!cs.HasSpec()) return;
  auto events = SystemToEvents(cs);
  if (!events.ok()) {
    report.disagreements.push_back(
        {"batch-vs-semantic",
         StrCat("trace serialization failed: ", events.status().message())});
    return;
  }
  const bool flip = options.inject == InjectedBug::kFlipCommutes;
  bool flipped = false;
  size_t erased = 0;
  std::vector<workload::TraceEvent> masked;
  masked.reserve(events->size());
  for (const workload::TraceEvent& e : *events) {
    // The clone carries no spec; its raw bits are the effective set.
    if (workload::IsAdtLayerEvent(e.kind)) continue;
    if (e.kind == workload::TraceEventKind::kConflict &&
        cs.SemanticallyCommutes(NodeId(e.a), NodeId(e.b))) {
      if (!flip || flipped) {
        ++erased;
        continue;
      }
      flipped = true;  // re-materialize one pair the spec erases
    }
    masked.push_back(e);
  }
  auto clone = BuildSystem(masked);
  if (!clone.ok()) {
    report.disagreements.push_back(
        {"batch-vs-semantic",
         StrCat("masked clone rebuild failed: ", clone.status().message())});
    return;
  }
  ReductionOptions ropts;
  ropts.validate = false;  // mask-only: the clone's bits are a subset
  ropts.keep_fronts = false;
  auto masked_batch = CheckCompC(*clone, ropts);
  if (!masked_batch.ok()) {
    report.disagreements.push_back(
        {"batch-vs-semantic", StrCat("masked clone reduction failed: ",
                                     masked_batch.status().message())});
    return;
  }
  if (masked_batch->correct != batch.correct) {
    report.disagreements.push_back(
        {"batch-vs-semantic",
         StrCat("spec-attached batch says ", Verdict(batch.correct),
                ", materialized mask (", erased,
                " conflict pair(s) erased) says ",
                Verdict(masked_batch->correct))});
  }
}

}  // namespace

StatusOr<DifferentialReport> CheckConformance(
    const CompositeSystem& cs, const DifferentialOptions& options) {
  COMPTX_RETURN_IF_ERROR(cs.Validate());
  ReductionOptions reduction;
  reduction.validate = false;
  // The serial-front check needs the final front, which is always kept on
  // success; intermediate fronts are not needed.
  reduction.keep_fronts = false;
  COMPTX_ASSIGN_OR_RETURN(CompCResult batch, CheckCompC(cs, reduction));

  DifferentialReport report;
  report.comp_c = batch.correct;
  report.order = batch.order;

  if (!batch.correct && !batch.failure.has_value()) {
    report.disagreements.push_back(
        {"batch", "rejected without a failure diagnosis"});
  }
  if (batch.correct) {
    CheckSerialWitness(cs, batch, report);
  }
  CheckOnline(cs, batch, options, report);
  const bool is_stack = criteria::IsStackSystem(cs);
  const bool is_fork = criteria::IsForkSystem(cs);
  const bool is_join = criteria::IsJoinSystem(cs);
  COMPTX_RETURN_IF_ERROR(CheckOracle(cs, batch, options,
                                     is_stack || is_fork || is_join, report));
  COMPTX_RETURN_IF_ERROR(CheckCriteria(cs, batch, options, is_stack, is_fork,
                                       is_join, report));
  CheckStatic(cs, batch, options, report);
  CheckSemanticMask(cs, batch, options, report);
  return report;
}

}  // namespace comptx::testing
