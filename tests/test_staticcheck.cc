// Tests for the static configuration analyzer and spec linter
// (src/staticcheck): exact CTX codes on the documented edge cases, exact
// SAFE/UNSAFE verdicts on the theorem shapes, and — the conformance
// requirement — static SAFE/UNSAFE never contradicting the dynamic
// reduction on a large fuzzed sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/builder.h"
#include "analysis/figures.h"
#include "core/correctness.h"
#include "core/validate.h"
#include "criteria/fcc.h"
#include "criteria/jcc.h"
#include "criteria/scc.h"
#include "staticcheck/analyzer.h"
#include "staticcheck/lint.h"
#include "test_helpers.h"
#include "testing/events.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace comptx {
namespace {

using staticcheck::ConfigShape;
using staticcheck::SafetyVerdict;
using workload::TopologyKind;

std::vector<DiagCode> Codes(const std::vector<Diagnostic>& diags) {
  std::vector<DiagCode> codes;
  codes.reserve(diags.size());
  for (const Diagnostic& d : diags) codes.push_back(d.code);
  return codes;
}

bool HasCode(const std::vector<Diagnostic>& diags, DiagCode code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

std::string Render(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += FormatDiagnostic(d);
    out += '\n';
  }
  return out;
}

workload::WorkloadSpec MakeSpec(TopologyKind kind, uint32_t depth) {
  workload::WorkloadSpec spec;
  spec.topology.kind = kind;
  spec.topology.depth = depth;
  spec.topology.branches = 2;
  spec.topology.roots = 3;
  spec.topology.fanout = 2;
  spec.execution.conflict_prob = 0.35;
  spec.execution.disorder_prob = 0.3;
  spec.execution.intra_weak_prob = 0.2;
  spec.execution.intra_strong_prob = 0.1;
  return spec;
}

// ------------------------------------------------------------- analyzer

TEST(AnalyzerTest, EmptySystemIsVacuouslySafe) {
  CompositeSystem cs;
  staticcheck::StaticAnalysis analysis = staticcheck::AnalyzeConfiguration(cs);
  EXPECT_EQ(analysis.verdict, SafetyVerdict::kSafe);
  EXPECT_EQ(analysis.shape, ConfigShape::kEmpty);
  EXPECT_EQ(analysis.order, 0u);
}

TEST(AnalyzerTest, SingleRootSingleLeafIsSafe) {
  analysis::CompositeSystemBuilder b;
  ScheduleId s = b.Schedule("S");
  NodeId t = b.Root(s, "T");
  b.Leaf(t, "op");
  CompositeSystem cs = std::move(b.Take());
  ASSERT_TRUE(cs.Validate().ok());
  staticcheck::StaticAnalysis analysis = staticcheck::AnalyzeConfiguration(cs);
  EXPECT_TRUE(analysis.well_formed);
  EXPECT_EQ(analysis.verdict, SafetyVerdict::kSafe) << analysis.reason;
  EXPECT_EQ(analysis.order, 1u);
}

TEST(AnalyzerTest, IllFormedSystemIsReportedNotDecided) {
  // A conflict without the weak output order Def 3.1 demands.
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  ASSERT_TRUE(stack.cs.AddConflict(stack.s1, stack.s2).ok());
  staticcheck::StaticAnalysis analysis =
      staticcheck::AnalyzeConfiguration(stack.cs);
  EXPECT_FALSE(analysis.well_formed);
  EXPECT_EQ(analysis.verdict, SafetyVerdict::kNeedsDynamic);
  EXPECT_TRUE(HasErrors(analysis.diagnostics))
      << Render(analysis.diagnostics);
}

TEST(AnalyzerTest, TwoLevelStackVerdictIsExact) {
  for (bool t1_first : {true, false}) {
    testing::TwoLevelStack stack =
        testing::MakeTwoLevelStack(t1_first, /*top_conflict=*/true);
    ASSERT_TRUE(stack.cs.Validate().ok());
    staticcheck::StaticAnalysis analysis =
        staticcheck::AnalyzeConfiguration(stack.cs);
    EXPECT_EQ(analysis.shape, ConfigShape::kStack);
    const bool comp_c = IsCompC(stack.cs);
    EXPECT_EQ(analysis.verdict,
              comp_c ? SafetyVerdict::kSafe : SafetyVerdict::kUnsafe)
        << analysis.reason;
  }
}

TEST(AnalyzerTest, Figure4NeedsDynamicWithSharedSchedulerExplanations) {
  analysis::PaperFigure fig = analysis::MakeFigure4();
  staticcheck::StaticAnalysis analysis =
      staticcheck::AnalyzeConfiguration(fig.system);
  ASSERT_TRUE(analysis.well_formed) << Render(analysis.diagnostics);
  // The forgotten order of Fig 4 is exactly what no structural theorem
  // sees: the analyzer must hand this one to the reduction, and the
  // reduction accepts it.
  EXPECT_EQ(analysis.verdict, SafetyVerdict::kNeedsDynamic)
      << analysis.reason;
  EXPECT_EQ(analysis.schedules.size(), fig.system.ScheduleCount());
  const bool any_hazard = std::any_of(
      analysis.schedules.begin(), analysis.schedules.end(),
      [](const staticcheck::ScheduleExplanation& s) {
        return s.meet && s.pulled_up_cross_conflicts > 0;
      });
  EXPECT_TRUE(any_hazard);
  EXPECT_TRUE(IsCompC(fig.system));
}

TEST(AnalyzerTest, Figure3IsNeverCalledSafe) {
  analysis::PaperFigure fig = analysis::MakeFigure3();
  staticcheck::StaticAnalysis analysis =
      staticcheck::AnalyzeConfiguration(fig.system);
  ASSERT_TRUE(analysis.well_formed) << Render(analysis.diagnostics);
  EXPECT_FALSE(IsCompC(fig.system));
  EXPECT_NE(analysis.verdict, SafetyVerdict::kSafe) << analysis.reason;
}

TEST(AnalyzerTest, TheoremShapesAreDecidedExactly) {
  // On stacks, forks and joins the analyzer must always decide, and the
  // verdict must equal the theorem criterion it implements.
  const TopologyKind kinds[] = {TopologyKind::kStack, TopologyKind::kFork,
                                TopologyKind::kJoin};
  for (TopologyKind kind : kinds) {
    const workload::WorkloadSpec spec = MakeSpec(kind, 3);
    for (uint64_t seed = 1; seed <= 25; ++seed) {
      auto cs = workload::GenerateSystem(spec, seed);
      ASSERT_TRUE(cs.ok()) << cs.status().ToString();
      staticcheck::StaticAnalysis analysis =
          staticcheck::AnalyzeConfiguration(*cs);
      ASSERT_TRUE(analysis.well_formed) << Render(analysis.diagnostics);
      ASSERT_NE(analysis.verdict, SafetyVerdict::kNeedsDynamic)
          << workload::DescribeWorkloadSpec(spec) << " seed " << seed << ": "
          << analysis.reason;
      EXPECT_EQ(analysis.verdict == SafetyVerdict::kSafe, IsCompC(*cs))
          << workload::DescribeWorkloadSpec(spec) << " seed " << seed << ": "
          << analysis.reason;
    }
  }
}

// The acceptance sweep: 1000 fuzzed traces across every topology kind;
// whenever the analyzer decides, its verdict and its order must agree with
// the dynamic reduction — SAFE and UNSAFE are exact claims, never
// heuristics.
TEST(AnalyzerTest, StaticVerdictNeverContradictsDynamicOn1000Traces) {
  const TopologyKind kinds[] = {TopologyKind::kStack, TopologyKind::kFork,
                                TopologyKind::kJoin,
                                TopologyKind::kLayeredDag};
  uint32_t decided = 0;
  uint32_t total = 0;
  for (TopologyKind kind : kinds) {
    for (uint32_t depth = 2; depth <= 3; ++depth) {
      const workload::WorkloadSpec spec = MakeSpec(kind, depth);
      for (uint64_t seed = 1; seed <= 125; ++seed) {
        auto cs = workload::GenerateSystem(spec, seed);
        ASSERT_TRUE(cs.ok()) << cs.status().ToString();
        ++total;
        staticcheck::AnalyzerOptions options;
        options.assume_valid = true;  // GenerateSystem validates.
        staticcheck::StaticAnalysis analysis =
            staticcheck::AnalyzeConfiguration(*cs, options);
        if (analysis.verdict == SafetyVerdict::kNeedsDynamic) continue;
        ++decided;
        auto dynamic = CheckCompC(*cs);
        ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();
        EXPECT_EQ(analysis.verdict == SafetyVerdict::kSafe, dynamic->correct)
            << workload::DescribeWorkloadSpec(spec) << " seed " << seed
            << ": static says "
            << staticcheck::SafetyVerdictToString(analysis.verdict)
            << " (shape " << staticcheck::ConfigShapeToString(analysis.shape)
            << "); reason: " << analysis.reason;
        EXPECT_EQ(analysis.order, dynamic->order)
            << workload::DescribeWorkloadSpec(spec) << " seed " << seed;
      }
    }
  }
  EXPECT_EQ(total, 1000u);
  // The analyzer must actually decide a share of the traces, not defer
  // everything to the reduction.
  EXPECT_GT(decided, total / 4) << "static analyzer decided " << decided
                                << " of " << total << " traces";
}

// ------------------------------------------------------------- lint codes

TEST(LintTest, EmptySystemEmitsCTX020) {
  staticcheck::LintResult lint =
      staticcheck::LintTraceText("comptx-trace v1\nschedule S\nend\n");
  ASSERT_TRUE(lint.buildable);
  ASSERT_EQ(lint.diagnostics.size(), 1u) << Render(lint.diagnostics);
  EXPECT_EQ(lint.diagnostics[0].code, DiagCode::kEmptySystem);
  EXPECT_EQ(lint.diagnostics[0].severity, DiagSeverity::kWarning);
}

TEST(LintTest, SingleRootSingleLeafIsClean) {
  staticcheck::LintResult lint = staticcheck::LintTraceText(
      "comptx-trace v1\nschedule S\nroot 0 T\nleaf 0 op\nend\n");
  EXPECT_TRUE(lint.buildable);
  EXPECT_TRUE(lint.diagnostics.empty()) << Render(lint.diagnostics);
}

TEST(LintTest, UndeclaredConflictOperandEmitsCTX023) {
  staticcheck::LintResult lint = staticcheck::LintTraceText(
      "comptx-trace v1\nschedule S\nroot 0 T\nleaf 0 a\n"
      "conflict 1 99\nend\n");
  EXPECT_EQ(Codes(lint.diagnostics),
            std::vector<DiagCode>{DiagCode::kDanglingNodeRef})
      << Render(lint.diagnostics);
  EXPECT_EQ(lint.diagnostics[0].line, 5u);
}

TEST(LintTest, SelfConflictEmitsCTX024) {
  staticcheck::LintResult lint = staticcheck::LintTraceText(
      "comptx-trace v1\nschedule S\nroot 0 T\nleaf 0 a\n"
      "conflict 1 1\nend\n");
  EXPECT_EQ(Codes(lint.diagnostics),
            std::vector<DiagCode>{DiagCode::kSelfConflict})
      << Render(lint.diagnostics);
}

TEST(LintTest, CrossScheduleConflictEmitsCTX025) {
  staticcheck::LintResult lint = staticcheck::LintTraceText(
      "comptx-trace v1\nschedule A\nschedule B\n"
      "root 0 T1\nroot 1 T2\nleaf 0 a\nleaf 1 b\n"
      "conflict 2 3\nend\n");
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kCrossScheduleConflict))
      << Render(lint.diagnostics);
}

TEST(LintTest, DuplicateConflictEmitsCTX026) {
  staticcheck::LintResult lint = staticcheck::LintTraceText(
      "comptx-trace v1\nschedule S\nroot 0 T1\nroot 0 T2\n"
      "leaf 0 a\nleaf 1 b\n"
      "conflict 2 3\nweak_out 2 3\nconflict 3 2\nend\n");
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kDuplicateConflict))
      << Render(lint.diagnostics);
  // A duplicate is a warning, not an error: the spec stays buildable.
  EXPECT_TRUE(lint.buildable);
  EXPECT_FALSE(HasErrors(lint.diagnostics)) << Render(lint.diagnostics);
}

TEST(LintTest, DeepInvocationCycleEmitsCTX001) {
  staticcheck::LintResult lint = staticcheck::LintTraceText(
      "comptx-trace v1\nschedule A\nschedule B\nschedule C\n"
      "root 0 R\nsub 0 1 X\nsub 1 2 Y\nsub 2 1 Z\nend\n");
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kRecursion))
      << Render(lint.diagnostics);
}

TEST(LintTest, DirectSelfInvocationEmitsCTX001) {
  staticcheck::LintResult lint = staticcheck::LintTraceText(
      "comptx-trace v1\nschedule A\nroot 0 R\nsub 0 0 X\nend\n");
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kRecursion))
      << Render(lint.diagnostics);
  EXPECT_FALSE(lint.buildable);
}

TEST(LintTest, OneScanReportsEveryViolation) {
  // One pass: a dangling schedule ref, a self conflict and a malformed
  // record must all be reported, not just the first.
  staticcheck::LintResult lint = staticcheck::LintTraceText(
      "comptx-trace v1\nschedule S\nroot 7 T\nroot 0 U\nleaf 0 a\n"
      "conflict 1 1\nbogus record\nend\n");
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kDanglingScheduleRef))
      << Render(lint.diagnostics);
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kSelfConflict))
      << Render(lint.diagnostics);
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kMalformedSpec))
      << Render(lint.diagnostics);
}

TEST(LintTest, MissingHeaderAndMissingEndEmitCTX050) {
  staticcheck::LintResult no_header =
      staticcheck::LintTraceText("schedule S\nend\n");
  EXPECT_TRUE(HasCode(no_header.diagnostics, DiagCode::kMalformedSpec));
  EXPECT_FALSE(no_header.buildable);
  staticcheck::LintResult no_end =
      staticcheck::LintTraceText("comptx-trace v1\nschedule S\n");
  EXPECT_TRUE(HasCode(no_end.diagnostics, DiagCode::kMalformedSpec));
}

TEST(LintTest, WitnessWithDanglingSchedulerEmitsCTX022) {
  const std::string json =
      "{\"id\": \"t\", \"injected\": \"none\", \"trace\": ["
      "\"schedule S\", \"root 0 T1\", \"root 5 T2\", \"leaf 0 a\"]}";
  staticcheck::LintResult lint = staticcheck::LintWitnessJson(json);
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kDanglingScheduleRef))
      << Render(lint.diagnostics);
}

TEST(LintTest, CommuteContradictionEmitsCTX027AndCTX028) {
  const std::string json =
      "{\"id\": \"t\", \"injected\": \"none\", "
      "\"commuting\": [\"2 3\", \"2 2\", \"2 99\", \"nonsense\"], "
      "\"trace\": [\"schedule S\", \"root 0 T1\", \"root 0 T2\", "
      "\"leaf 0 a\", \"leaf 1 b\", \"conflict 2 3\", \"weak_out 2 3\"]}";
  staticcheck::LintResult lint = staticcheck::LintWitnessJson(json);
  ASSERT_TRUE(lint.buildable);
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kCommuteContradictsConflict))
      << Render(lint.diagnostics);
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kSelfCommute))
      << Render(lint.diagnostics);
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kDanglingNodeRef))
      << Render(lint.diagnostics);
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kMalformedSpec))
      << Render(lint.diagnostics);
}

TEST(LintTest, UnparsableWitnessJsonEmitsCTX050) {
  staticcheck::LintResult lint =
      staticcheck::LintWitnessJson("definitely not json");
  ASSERT_EQ(lint.diagnostics.size(), 1u);
  EXPECT_EQ(lint.diagnostics[0].code, DiagCode::kMalformedSpec);
  EXPECT_FALSE(lint.buildable);
}

TEST(LintTest, SharedSchedulerHazardIsANoteNotAnError) {
  analysis::PaperFigure fig = analysis::MakeFigure4();
  auto events = testing::SystemToEvents(fig.system);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  staticcheck::LintResult lint = staticcheck::LintTraceEvents(*events);
  EXPECT_FALSE(HasErrors(lint.diagnostics)) << Render(lint.diagnostics);
  EXPECT_TRUE(HasCode(lint.diagnostics, DiagCode::kForgottenOrderHazard))
      << Render(lint.diagnostics);
}

TEST(LintTest, WorkloadSpecParameterLint) {
  workload::WorkloadSpec spec = MakeSpec(TopologyKind::kStack, 3);
  EXPECT_TRUE(staticcheck::LintWorkloadSpec(spec).empty());

  spec.execution.conflict_prob = 1.5;
  spec.topology.roots = 0;
  std::vector<Diagnostic> diags = staticcheck::LintWorkloadSpec(spec);
  EXPECT_TRUE(HasCode(diags, DiagCode::kProbabilityOutOfRange))
      << Render(diags);
  EXPECT_TRUE(HasCode(diags, DiagCode::kDegenerateWorkload)) << Render(diags);

  workload::WorkloadSpec contradictory = MakeSpec(TopologyKind::kStack, 3);
  contradictory.execution.order_preserving_outputs = true;
  contradictory.execution.disorder_prob = 0.5;
  EXPECT_TRUE(HasCode(staticcheck::LintWorkloadSpec(contradictory),
                      DiagCode::kIncompatibleSpec));
}

TEST(LintTest, ModelDiagnosticsCollectEveryViolation) {
  // Two independent unordered-conflict violations: the collector must
  // return both (Validate() historically stopped at the first).
  analysis::CompositeSystemBuilder b;
  ScheduleId s = b.Schedule("S");
  NodeId t1 = b.Root(s, "T1");
  NodeId t2 = b.Root(s, "T2");
  NodeId a = b.Leaf(t1, "a");
  NodeId bb = b.Leaf(t2, "b");
  NodeId c = b.Leaf(t1, "c");
  NodeId d = b.Leaf(t2, "d");
  b.Conflict(a, bb);  // no weak_out: Def 3.1c violated
  b.Conflict(c, d);   // no weak_out: violated again
  CompositeSystem cs = std::move(b.Take());
  std::vector<Diagnostic> diags = CollectModelDiagnostics(cs);
  size_t unordered = 0;
  for (const Diagnostic& diag : diags) {
    unordered += diag.code == DiagCode::kConflictUnordered ? 1 : 0;
  }
  EXPECT_EQ(unordered, 2u) << Render(diags);
  EXPECT_FALSE(cs.Validate().ok());
}

TEST(LintTest, DiagnosticRenderingIsStable) {
  EXPECT_EQ(DiagCodeName(DiagCode::kConflictUnordered), "CTX009");
  EXPECT_EQ(DiagCodeName(DiagCode::kEmptySystem), "CTX020");
  EXPECT_EQ(DiagCodeName(DiagCode::kInternalError), "CTX099");
  Diagnostic d;
  d.severity = DiagSeverity::kError;
  d.code = DiagCode::kSelfConflict;
  d.location = "conflict";
  d.line = 7;
  d.message = "operation 2 is declared to conflict with itself";
  d.fix = "remove the pair";
  const std::string text = FormatDiagnostic(d);
  EXPECT_NE(text.find("error[CTX024]"), std::string::npos) << text;
  EXPECT_NE(text.find("line 7"), std::string::npos) << text;
  EXPECT_NE(text.find("fix: remove the pair"), std::string::npos) << text;
}

}  // namespace
}  // namespace comptx
