// Tests for online::Certifier: prefix agreement with batch CheckCompC on
// randomized traces over every topology shape, the paper's Figure 3/4
// fixtures, and sealing + pruning.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/figures.h"
#include "core/correctness.h"
#include "online/certifier.h"
#include "util/rng.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace comptx::online {
namespace {

ReductionOptions BatchPrefixOptions(bool forgetting = true) {
  ReductionOptions options;
  // Prefixes of well-formed executions legitimately violate the
  // completeness rules of Defs 3-4 until the remaining events arrive, so
  // the batch reference runs with validation off — the same semantics the
  // online session implements.
  options.validate = false;
  options.keep_fronts = false;
  options.forgetting = forgetting;
  return options;
}

/// Replays `text` event by event through a Certifier and asserts the
/// online verdict equals batch CheckCompC on the accepted-events prefix
/// after EVERY event.  Returns the number of accepted events.
size_t ExpectPrefixAgreement(const std::string& text,
                             const CertifierOptions& options = {},
                             const std::string& context = "") {
  auto events = workload::ParseTraceEvents(text);
  EXPECT_TRUE(events.ok()) << context << ": " << events.status().ToString();
  if (!events.ok()) return 0;

  Certifier certifier(options);
  CompositeSystem mirror;
  size_t accepted = 0;
  size_t index = 0;
  for (const workload::TraceEvent& event : *events) {
    ++index;
    if (!certifier.Ingest(event).ok()) continue;  // mirror skips rejections
    ++accepted;
    Status applied = workload::ApplyTraceEvent(mirror, event);
    EXPECT_TRUE(applied.ok()) << context << " event " << index << ": "
                              << applied.ToString();
    auto batch = CheckCompC(mirror, BatchPrefixOptions(options.forgetting));
    EXPECT_TRUE(batch.ok()) << context << " event " << index;
    EXPECT_EQ(certifier.Certifiable(), batch->correct)
        << context << ": disagreement after event " << index << " ("
        << workload::FormatTraceEvent(event) << ")";
    if (certifier.Certifiable() != batch->correct) return accepted;  // stop
  }
  return accepted;
}

TEST(Certifier, EmptySessionIsCertifiable) {
  Certifier certifier;
  EXPECT_TRUE(certifier.Certifiable());
  EXPECT_EQ(certifier.Verdict().order, 0u);
  EXPECT_TRUE(certifier.SerialWitness().empty());
}

TEST(Certifier, Figure4PrefixAgreementAndWitness) {
  auto text = workload::SaveTrace(analysis::MakeFigure4().system);
  ASSERT_TRUE(text.ok());
  ExpectPrefixAgreement(*text, {}, "figure4");

  // Full replay is certifiable with a two-root serial witness.
  auto events = workload::ParseTraceEvents(*text);
  ASSERT_TRUE(events.ok());
  Certifier certifier;
  for (const auto& event : *events) {
    ASSERT_TRUE(certifier.Ingest(event).ok());
  }
  EXPECT_TRUE(certifier.Certifiable());
  EXPECT_EQ(certifier.Verdict().order, 3u);
  EXPECT_EQ(certifier.SerialWitness().size(), 2u);
}

TEST(Certifier, Figure3DetectsTheViolation) {
  auto text = workload::SaveTrace(analysis::MakeFigure3().system);
  ASSERT_TRUE(text.ok());
  ExpectPrefixAgreement(*text, {}, "figure3");

  auto events = workload::ParseTraceEvents(*text);
  ASSERT_TRUE(events.ok());
  Certifier certifier;
  for (const auto& event : *events) {
    ASSERT_TRUE(certifier.Ingest(event).ok());
  }
  EXPECT_FALSE(certifier.Certifiable());
  ASSERT_TRUE(certifier.Verdict().failure.has_value());
  EXPECT_FALSE(certifier.Verdict().failure->description.empty());
  EXPECT_TRUE(certifier.SerialWitness().empty());
}

TEST(Certifier, Figure4WithoutForgettingFails) {
  // The E8 ablation: disabling Def 10.3 forgetting makes Figure 4
  // incorrect, online and batch alike.
  auto text = workload::SaveTrace(analysis::MakeFigure4().system);
  ASSERT_TRUE(text.ok());
  CertifierOptions options;
  options.forgetting = false;
  ExpectPrefixAgreement(*text, options, "figure4-noforget");

  auto events = workload::ParseTraceEvents(*text);
  ASSERT_TRUE(events.ok());
  Certifier certifier(options);
  for (const auto& event : *events) {
    ASSERT_TRUE(certifier.Ingest(event).ok());
  }
  EXPECT_FALSE(certifier.Certifiable());
}

/// The headline property: online == batch after every event, across >=1000
/// random traces covering all four topology shapes, with and without
/// local serialization anomalies injected.
TEST(Certifier, PrefixAgreementOnRandomTraces) {
  const std::vector<workload::TopologyKind> kinds = {
      workload::TopologyKind::kStack,
      workload::TopologyKind::kFork,
      workload::TopologyKind::kJoin,
      workload::TopologyKind::kLayeredDag,
  };
  size_t traces = 0;
  for (workload::TopologyKind kind : kinds) {
    for (uint64_t seed = 0; seed < 250; ++seed) {
      workload::WorkloadSpec spec;
      spec.topology.kind = kind;
      spec.topology.depth = 2 + static_cast<uint32_t>(seed % 2);
      spec.topology.branches = 2;
      spec.topology.roots = 2 + static_cast<uint32_t>(seed % 3);
      spec.topology.fanout = 2;
      spec.execution.conflict_prob = 0.35;
      // Half the traces inject local anomalies so the incorrect branch of
      // the verdict is exercised heavily as well.
      spec.execution.disorder_prob = (seed % 2 == 0) ? 0.0 : 0.3;
      spec.execution.intra_weak_prob = 0.25;
      spec.execution.intra_strong_prob = 0.1;

      auto cs = workload::GenerateSystem(spec, seed);
      ASSERT_TRUE(cs.ok()) << cs.status().ToString();
      auto text = workload::SaveTrace(*cs);
      ASSERT_TRUE(text.ok());
      std::string context = std::string(TopologyKindToString(kind)) +
                            "/seed=" + std::to_string(seed);
      ASSERT_GT(ExpectPrefixAgreement(*text, {}, context), 0u) << context;
      ++traces;
      if (HasFailure()) return;  // one counterexample is enough output
    }
  }
  EXPECT_EQ(traces, 1000u);
}

TEST(Certifier, RejectsEventsOnSealedSubtrees) {
  Certifier certifier;
  workload::TraceEvent event;
  event.kind = workload::TraceEventKind::kSchedule;
  event.name = "S1";
  ASSERT_TRUE(certifier.Ingest(event).ok());
  event.kind = workload::TraceEventKind::kRoot;
  event.schedule = 0;
  event.name = "T1";
  ASSERT_TRUE(certifier.Ingest(event).ok());
  event = {};
  event.kind = workload::TraceEventKind::kLeaf;
  event.parent = 0;
  event.name = "x";
  ASSERT_TRUE(certifier.Ingest(event).ok());

  ASSERT_TRUE(certifier.Commit(NodeId(0)).ok());
  ASSERT_TRUE(certifier.Commit(NodeId(0)).ok());  // idempotent

  // A new operation under the sealed root must be rejected...
  event = {};
  event.kind = workload::TraceEventKind::kLeaf;
  event.parent = 0;
  event.name = "y";
  EXPECT_FALSE(certifier.Ingest(event).ok());
  // ...while unrelated growth is still accepted.
  event = {};
  event.kind = workload::TraceEventKind::kRoot;
  event.schedule = 0;
  event.name = "T2";
  EXPECT_TRUE(certifier.Ingest(event).ok());
  EXPECT_EQ(certifier.Stats().events_rejected, 1u);
}

TEST(Certifier, PruningRemovesQuiescentCommittedSubtrees) {
  // Two independent roots with a conflict-free history: after committing
  // T1, its subtree has no incoming edges anywhere and must be pruned.
  Certifier certifier;
  workload::TraceEvent event;
  event.kind = workload::TraceEventKind::kSchedule;
  event.name = "S1";
  ASSERT_TRUE(certifier.Ingest(event).ok());
  for (const char* root : {"T1", "T2"}) {
    event = {};
    event.kind = workload::TraceEventKind::kRoot;
    event.schedule = 0;
    event.name = root;
    ASSERT_TRUE(certifier.Ingest(event).ok());
  }
  for (auto [parent, name] : {std::pair{0u, "x"}, {1u, "y"}}) {
    event = {};
    event.kind = workload::TraceEventKind::kLeaf;
    event.parent = parent;
    event.name = name;
    ASSERT_TRUE(certifier.Ingest(event).ok());
  }

  ASSERT_TRUE(certifier.Commit(NodeId(0)).ok());
  CertifierStats stats = certifier.Stats();
  EXPECT_EQ(stats.pruned_nodes, 2u);  // T1 and its leaf
  EXPECT_EQ(stats.live_nodes, 2u);    // T2 and its leaf
  EXPECT_TRUE(certifier.Certifiable());
  // The witness only lists live roots.
  std::vector<NodeId> witness = certifier.SerialWitness();
  ASSERT_EQ(witness.size(), 1u);
  EXPECT_EQ(witness[0], NodeId(1));
}

TEST(Certifier, CommitAllRootsOnRandomTracePreservesVerdict) {
  // Ingest a full random trace, then commit every root; pruning must never
  // flip the verdict, and the verdict must still match batch on the full
  // system.
  for (uint64_t seed = 0; seed < 25; ++seed) {
    workload::WorkloadSpec spec;
    spec.topology.kind = workload::TopologyKind::kLayeredDag;
    spec.topology.depth = 3;
    spec.topology.roots = 3;
    spec.execution.conflict_prob = 0.3;
    spec.execution.disorder_prob = (seed % 2 == 0) ? 0.0 : 0.3;
    auto cs = workload::GenerateSystem(spec, 5000 + seed);
    ASSERT_TRUE(cs.ok());
    auto text = workload::SaveTrace(*cs);
    ASSERT_TRUE(text.ok());
    auto events = workload::ParseTraceEvents(*text);
    ASSERT_TRUE(events.ok());

    Certifier certifier;
    for (const auto& event : *events) {
      ASSERT_TRUE(certifier.Ingest(event).ok());
    }
    auto batch = CheckCompC(*cs, BatchPrefixOptions());
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(certifier.Certifiable(), batch->correct) << "seed " << seed;

    for (NodeId root : cs->Roots()) {
      ASSERT_TRUE(certifier.Commit(root).ok());
    }
    certifier.Prune();
    EXPECT_EQ(certifier.Certifiable(), batch->correct)
        << "pruning flipped the verdict, seed " << seed;
    if (batch->correct) {
      EXPECT_GT(certifier.Stats().pruned_nodes, 0u) << "seed " << seed;
    }
  }
}

// Two level-2 blocks on schedule R: T1 groups u1, u2 and T2 groups v1, v2
// (all four run on S).  T2's intra order agrees with its observed order;
// T1's last event orders u2 before u1 against the conflict-bound u1 -> u2.
constexpr char kIntraBlockTrace[] =
    "comptx-trace v1\n"
    "schedule R\nschedule S\n"
    "root 0 T1\nsub 0 1 u1\nsub 0 1 u2\nleaf 1 x1\nleaf 2 x2\n"
    "root 0 T2\nsub 5 1 v1\nsub 5 1 v2\n"
    "conflict 6 7\nweak_out 6 7\nconflict 1 2\nweak_out 1 2\n"
    "intra_weak 5 6 7\n";

TEST(Certifier, IntraBlockFailureNamesItsBlock) {
  const std::string text =
      std::string(kIntraBlockTrace) + "intra_weak 0 2 1\nend\n";
  ExpectPrefixAgreement(text);
  auto events = workload::ParseTraceEvents(text);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  Certifier certifier;
  ASSERT_EQ(certifier.IngestBatch(*events), 0u);

  const CertifierVerdict verdict = certifier.Verdict();
  ASSERT_FALSE(verdict.certifiable);
  ASSERT_TRUE(verdict.failure.has_value());
  EXPECT_EQ(verdict.failure->level, 2u);
  EXPECT_EQ(verdict.failure->step, OnlineFailure::Step::kCalculation);
  EXPECT_NE(verdict.failure->description.find(
                "no calculation for transaction T1"),
            std::string::npos)
      << verdict.failure->description;
  EXPECT_EQ(verdict.failure->witness,
            (std::vector<NodeId>{NodeId(1), NodeId(2)}));
  const CertifierStats stats = certifier.Stats();
  // u1 -> u2 and u2 -> u1 inside T1, v1 -> v2 inside T2.
  EXPECT_EQ(stats.calc_edges, 3u);
  // One weak intra pair per block; the two weak output pairs stay
  // generators, never closed.
  EXPECT_EQ(stats.closure_pairs, 2u);
  EXPECT_EQ(stats.weak_output_generators, 2u);
}

TEST(Certifier, CommittedBlocksPruneTheirIntraEdges) {
  const std::string text =
      std::string(kIntraBlockTrace) + "commit_through 2\nend\n";
  auto events = workload::ParseTraceEvents(text);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  Certifier certifier;
  ASSERT_EQ(certifier.IngestBatch(*events), 0u);
  EXPECT_TRUE(certifier.Certifiable());
  const CertifierStats stats = certifier.Stats();
  EXPECT_EQ(stats.pruned_nodes, 8u);
  EXPECT_EQ(stats.live_nodes, 0u);
  EXPECT_EQ(stats.closure_pairs, 0u);
  EXPECT_EQ(stats.weak_output_generators, 0u);
  EXPECT_EQ(stats.calc_edges, 0u);
}

TEST(Certifier, RestoresInvocationChainLongerThanTheCallStack) {
  // Levels are longest invocation paths, so a chain S0 -> S1 -> ... over
  // every schedule reaches order kSchedules; computing it must not recurse
  // once per link.
  constexpr uint32_t kSchedules = 200000;
  Certifier certifier;
  workload::TraceEvent event;
  event.kind = workload::TraceEventKind::kSchedule;
  std::vector<workload::TraceEvent> schedules(kSchedules, event);
  ASSERT_EQ(certifier.IngestBatch(schedules), 0u);
  std::vector<std::pair<uint32_t, uint32_t>> chain;
  chain.reserve(kSchedules - 1);
  for (uint32_t s = 0; s + 1 < kSchedules; ++s) chain.emplace_back(s, s + 1);
  const Status restored = certifier.RestoreInvocations(chain);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_EQ(certifier.Verdict().order, kSchedules);
  EXPECT_TRUE(certifier.Certifiable());
}

TEST(Certifier, RejectsRecursiveInvocation) {
  Certifier certifier;
  workload::TraceEvent event;
  event.kind = workload::TraceEventKind::kSchedule;
  event.name = "S1";
  ASSERT_TRUE(certifier.Ingest(event).ok());
  event.name = "S2";
  ASSERT_TRUE(certifier.Ingest(event).ok());
  event = {};
  event.kind = workload::TraceEventKind::kRoot;
  event.schedule = 0;
  event.name = "T1";
  ASSERT_TRUE(certifier.Ingest(event).ok());
  event = {};
  event.kind = workload::TraceEventKind::kSub;
  event.parent = 0;
  event.schedule = 1;
  event.name = "t11";
  ASSERT_TRUE(certifier.Ingest(event).ok());
  // t11 runs on S2; invoking S1 from it would close S1 -> S2 -> S1.
  event = {};
  event.kind = workload::TraceEventKind::kSub;
  event.parent = 1;
  event.schedule = 0;
  event.name = "t111";
  EXPECT_FALSE(certifier.Ingest(event).ok());
  // The session survives and stays usable.
  EXPECT_TRUE(certifier.Certifiable());
  event = {};
  event.kind = workload::TraceEventKind::kLeaf;
  event.parent = 1;
  event.name = "x";
  EXPECT_TRUE(certifier.Ingest(event).ok());
}

TEST(Certifier, ScheduleDeclarationsDoNotRebuild) {
  // A new schedule invokes nothing, so it lands at level 1 without moving
  // any other level: only the first one (order 0 -> 1) may rebuild.
  std::string text = "comptx-trace v1\n";
  for (int s = 0; s < 2000; ++s) {
    text += "schedule S" + std::to_string(s) + "\n";
  }
  text += "root 0 T1\nleaf 0 a\nroot 1999 T2\nleaf 2 b\n";
  // A `sub` adding a new invocation edge moves S0 to level 2; a second
  // `sub` over the same edge, or a new edge to another level-1 schedule,
  // moves nothing.
  text += "sub 0 1 t1\nsub 0 1 t2\nsub 0 2 t3\nend\n";
  auto events = workload::ParseTraceEvents(text);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  Certifier certifier;
  CompositeSystem mirror;
  std::vector<uint64_t> rebuilds;
  for (const workload::TraceEvent& event : *events) {
    ASSERT_TRUE(certifier.Ingest(event).ok())
        << workload::FormatTraceEvent(event);
    ASSERT_TRUE(workload::ApplyTraceEvent(mirror, event).ok());
    rebuilds.push_back(certifier.Stats().rebuilds);
  }
  ASSERT_EQ(rebuilds.size(), 2007u);
  EXPECT_LE(rebuilds[2003], 1u);                  // schedules, roots, leaves
  EXPECT_EQ(rebuilds[2004], rebuilds[2003] + 1);  // new edge S0 -> S1
  EXPECT_EQ(rebuilds[2005], rebuilds[2004]);      // same edge again
  EXPECT_EQ(rebuilds[2006], rebuilds[2004]);      // S0 -> S2, no deeper
  auto batch = CheckCompC(mirror, BatchPrefixOptions());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(certifier.Certifiable(), batch->correct);
  EXPECT_EQ(certifier.Verdict().order, batch->order);
}

// ------------------------------------------------ implied closure pairs
//
// The certifier keeps the weak output generators, not their closure, and
// a commuting pair implied through a generator whose ends are both
// leaves reaches no front graph (docs/THEORY.md, "Implied weak output
// pairs").  Each case holds the online verdict to batch after every
// event of its whole stream, then replays the stream in stages to read
// the engine's counts.

/// Ingests `lines` (trace records, one per line, no header) into
/// `certifier`, asserting each is accepted.
void IngestLines(Certifier& certifier, const std::string& lines) {
  auto events = workload::ParseTraceEvents("comptx-trace v1\n" + lines +
                                           "end\n");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(certifier.IngestBatch(*events), 0u) << lines;
}

/// Batch CheckCompC of the whole of `lines`.
CompCResult BatchOf(const std::string& lines, bool forgetting = true) {
  auto cs = workload::LoadTrace("comptx-trace v1\n" + lines + "end\n");
  EXPECT_TRUE(cs.ok()) << cs.status().ToString();
  auto batch = CheckCompC(*cs, BatchPrefixOptions(forgetting));
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  return *batch;
}

/// One schedule S, roots T1 T2 T3 with leaves a=1, b=3, c=5.
constexpr char kThreeLeaves[] =
    "schedule S\n"
    "root 0 T1\nleaf 0 a\nroot 0 T2\nleaf 2 b\nroot 0 T3\nleaf 4 c\n";

TEST(ImpliedPairs, CommutingMiddleKeepsTheConflictingPairsCalcEdge) {
  // Malta & Martinez: a <out b <out c where only a and c conflict.  b
  // commutes with both, so the path a -> b -> c carries no calculation
  // edge: the implied pair (a, c) must keep its own, whether its
  // conflict precedes the order or follows it.
  for (const char* relations :
       {"conflict 1 5\nweak_out 1 3\nweak_out 3 5\n",
        "weak_out 1 3\nweak_out 3 5\nconflict 1 5\n"}) {
    const std::string ordered = std::string(kThreeLeaves) + relations;
    // T3 before T1 as input contradicts the conflict order a -> c.
    const std::string contradicted = "weak_in 0 4 0\n";
    ExpectPrefixAgreement("comptx-trace v1\n" + ordered + contradicted +
                          "end\n");

    Certifier certifier;
    IngestLines(certifier, ordered);
    EXPECT_TRUE(certifier.Certifiable()) << relations;
    EXPECT_EQ(certifier.Stats().calc_edges, 1u) << relations;  // T1 -> T3
    EXPECT_EQ(certifier.SerialWitness(),
              (std::vector<NodeId>{NodeId(0), NodeId(2), NodeId(4)}))
        << relations;
    IngestLines(certifier, contradicted);
    ASSERT_FALSE(certifier.Certifiable()) << relations;
    EXPECT_EQ(certifier.Verdict().failure->level, 1u) << relations;
    const CompCResult batch = BatchOf(ordered + contradicted);
    ASSERT_FALSE(batch.correct);
    EXPECT_EQ(batch.failure->level, 1u);
  }
}

TEST(ImpliedPairs, GeneratorThroughATransactionKeepsTheLevelZeroPair) {
  // a <out t <out c with t a subtransaction: t joins the fronts only at
  // its owner's level 1, so front 0 has no path a -> t -> c and the
  // implied (a, c) must stay an explicit level-0 edge.  Pulling c before
  // a down onto front 0 then closes a cycle there first.
  const std::string lines =
      "schedule S\nschedule R\n"
      "root 0 T1\nleaf 0 a\nroot 0 T2\nsub 2 1 t\nroot 0 T3\nleaf 4 c\n"
      "weak_out 1 3\nweak_out 3 5\nstrong_in 0 4 0\n";
  ExpectPrefixAgreement("comptx-trace v1\n" + lines + "end\n");
  const CompCResult batch = BatchOf(lines);
  ASSERT_FALSE(batch.correct);
  EXPECT_EQ(batch.failure->level, 0u);
  Certifier certifier;
  IngestLines(certifier, lines);
  ASSERT_FALSE(certifier.Certifiable());
  EXPECT_EQ(certifier.Verdict().order, 2u);
  EXPECT_EQ(certifier.Verdict().failure->level, 0u);
}

TEST(ImpliedPairs, WithoutForgettingNoPairIsSkipped) {
  // No conflicts: with forgetting, the pull-ups of the three pairs are
  // forgotten and the implied (a, c) is skipped, leaving a -> b -> c on
  // front 0.  Without forgetting every pair is explicit on both fronts.
  const std::string lines =
      std::string(kThreeLeaves) + "weak_out 1 3\nweak_out 3 5\n";
  CertifierOptions options;
  for (const bool forgetting : {true, false}) {
    options.forgetting = forgetting;
    ExpectPrefixAgreement("comptx-trace v1\n" + lines + "end\n", options);
    Certifier certifier(options);
    IngestLines(certifier, lines);
    EXPECT_TRUE(certifier.Certifiable());
    EXPECT_EQ(BatchOf(lines, forgetting).correct, certifier.Certifiable());
    const CertifierStats stats = certifier.Stats();
    EXPECT_EQ(stats.closure_pairs, 0u);
    EXPECT_EQ(stats.weak_output_generators, 2u);
    EXPECT_EQ(stats.cc_edges, forgetting ? 2u : 6u) << forgetting;
    EXPECT_EQ(stats.observed_pairs, forgetting ? 2u : 6u) << forgetting;
  }
}

TEST(ImpliedPairs, AClashReplaysSkippedPairsExplicitly) {
  // Four chained leaves, each conflicting only with its neighbours: three
  // implied pairs are skipped.  A clash after them rebuilds the engine
  // from the generators' walks, explicitly; later events skip again, and
  // an input order contradicting the chain still fails like batch.
  const std::string chain =
      "schedule S\nadt Q\nadtop 0 inc\nadtop 0 get\n"
      "root 0 T0\nleaf 0 x0\nroot 0 T1\nleaf 2 x1\n"
      "root 0 T2\nleaf 4 x2\nroot 0 T3\nleaf 6 x3\n"
      "conflict 1 3\nweak_out 1 3\nconflict 3 5\nweak_out 3 5\n"
      "conflict 5 7\nweak_out 5 7\n";
  const std::string clash = "clash 0 1\n";
  const std::string extension =
      "root 0 T4\nleaf 8 x4\nconflict 7 9\nweak_out 7 9\n";
  const std::string contradicted = "weak_in 0 8 0\n";
  const std::string lines = chain + clash + extension + contradicted;
  ExpectPrefixAgreement("comptx-trace v1\n" + lines + "end\n");

  Certifier certifier;
  IngestLines(certifier, chain);
  const CertifierStats skipped = certifier.Stats();
  EXPECT_EQ(skipped.closure_pairs, 0u);
  EXPECT_EQ(skipped.weak_output_generators, 3u);
  EXPECT_EQ(skipped.cc_edges, 6u);  // 3 per front
  IngestLines(certifier, clash);
  EXPECT_EQ(certifier.Stats().rebuilds, skipped.rebuilds + 1);
  EXPECT_EQ(certifier.Stats().cc_edges, 9u);  // all 6 on front 0
  IngestLines(certifier, extension);
  EXPECT_EQ(certifier.Stats().cc_edges, 11u);  // (x3, x4) on both fronts
  EXPECT_TRUE(certifier.Certifiable());
  IngestLines(certifier, contradicted);
  EXPECT_FALSE(certifier.Certifiable());
  EXPECT_FALSE(BatchOf(lines).correct);
}

/// The failure's step as batch names it.
ReductionFailureStep BatchStep(OnlineFailure::Step step) {
  return step == OnlineFailure::Step::kCalculation
             ? ReductionFailureStep::kCalculation
             : ReductionFailureStep::kConflictConsistency;
}

/// Schedule S hosts a (under T1), the subtransaction t (under T2, run on
/// R, with leaf u) and c (under T3): a mixed schedule at level 2.
constexpr char kMixedSchedule[] =
    "schedule S\nschedule R\n"
    "root 0 T1\nleaf 0 a\nroot 0 T2\nsub 2 1 t\nleaf 3 u\n"
    "root 0 T3\nleaf 5 c\n";

TEST(ImpliedPairs, GeneratorCycleThroughATransactionFailsLikeBatch) {
  // a -> t -> c -> a in every arrival order, failing at batch's event,
  // level and step.  The cycle closes on front 0 through the implied leaf
  // pair (a, c), where t is absent, and on front 1 through t.  When a
  // generator with t as an end closes it, that generator reaches only
  // front 1, so the implied leaf pairs, which reach front 0, are routed
  // before it and online fails on front 0 like batch.
  std::vector<std::string> generators = {"weak_out 1 3\n", "weak_out 3 6\n",
                                         "weak_out 6 1\n"};
  std::sort(generators.begin(), generators.end());
  do {
    std::string lines = kMixedSchedule;
    for (const std::string& g : generators) lines += g;
    ExpectPrefixAgreement("comptx-trace v1\n" + lines + "end\n", {}, lines);
    Certifier certifier;
    IngestLines(certifier, lines);
    const CompCResult batch = BatchOf(lines);
    ASSERT_FALSE(batch.correct) << lines;
    ASSERT_FALSE(certifier.Certifiable()) << lines;
    const OnlineFailure failure = *certifier.Verdict().failure;
    EXPECT_EQ(batch.failure->level, 0u) << lines;
    EXPECT_EQ(failure.level, batch.failure->level) << lines;
    EXPECT_EQ(BatchStep(failure.step), batch.failure->step) << lines;
    EXPECT_EQ(certifier.Stats().weak_output_generators, 3u) << lines;
  } while (std::next_permutation(generators.begin(), generators.end()));
}

TEST(ImpliedPairs, AGeneratorOutOfACycleIsNotClosedByItself) {
  // t1 <out t2 <out t1 on S, a commuting cycle of subtransactions that
  // fails nowhere, then t1 <out b with b a leaf conflicting with t1.  The
  // walk asking whether (t1, b) was closed before comes back to t1 round
  // the cycle and must not follow the new generator from there: (t1, b)
  // is new, conflicts, and orders T1 before T3 at level 2, which T3
  // before T1 as input contradicts.
  const std::string ordered =
      "schedule S\nschedule R\n"
      "root 0 T1\nsub 0 1 t1\nroot 0 T2\nsub 2 1 t2\n"
      "root 0 T3\nleaf 4 b\n"
      "conflict 1 5\nweak_out 1 3\nweak_out 3 1\nweak_out 1 5\n";
  const std::string contradicted = "weak_in 0 4 0\n";
  ExpectPrefixAgreement("comptx-trace v1\n" + ordered + contradicted +
                        "end\n");
  Certifier certifier;
  IngestLines(certifier, ordered);
  ASSERT_TRUE(certifier.Certifiable());
  EXPECT_EQ(certifier.Stats().weak_output_generators, 3u);
  IngestLines(certifier, contradicted);
  const CompCResult batch = BatchOf(ordered + contradicted);
  ASSERT_FALSE(batch.correct);
  ASSERT_FALSE(certifier.Certifiable());
  const OnlineFailure failure = *certifier.Verdict().failure;
  EXPECT_EQ(failure.level, batch.failure->level);
  EXPECT_EQ(BatchStep(failure.step), batch.failure->step);
}

TEST(ImpliedPairs, ConflictAfterTheOrderFindsThePairImpliedThroughT) {
  // t1 <out t2 <out t3 on S, all three subtransactions run on R, then a
  // conflict on (t1, t3).  No generator joins t1 and t3, and with no leaf
  // end and no conflict yet the implied pair reached no front: only the
  // walk through t2 can tell OnConflict that (t1, t3) is closed, so that
  // T1 is ordered before T3 at level 2.  T3 before T1 as input then
  // contradicts it.
  const std::string ordered =
      "schedule S\nschedule R\n"
      "root 0 T1\nsub 0 1 t1\nroot 0 T2\nsub 2 1 t2\n"
      "root 0 T3\nsub 4 1 t3\n"
      "weak_out 1 3\nweak_out 3 5\nconflict 1 5\n";
  const std::string contradicted = "weak_in 0 4 0\n";
  ExpectPrefixAgreement("comptx-trace v1\n" + ordered + contradicted +
                        "end\n");
  Certifier certifier;
  IngestLines(certifier, ordered);
  ASSERT_TRUE(certifier.Certifiable());
  EXPECT_EQ(certifier.Stats().closure_pairs, 0u);
  EXPECT_EQ(certifier.Stats().weak_output_generators, 2u);
  EXPECT_EQ(certifier.SerialWitness(),
            (std::vector<NodeId>{NodeId(0), NodeId(2), NodeId(4)}));
  IngestLines(certifier, contradicted);
  const CompCResult batch = BatchOf(ordered + contradicted);
  ASSERT_FALSE(batch.correct);
  ASSERT_FALSE(certifier.Certifiable());
  const OnlineFailure failure = *certifier.Verdict().failure;
  EXPECT_EQ(failure.level, batch.failure->level);
  EXPECT_EQ(BatchStep(failure.step), batch.failure->step);
}

/// Ingests `stream` (one record per line) into a pruning and a
/// non-pruning session in lockstep, holding both to batch after every
/// event and to each other's verdict; `check` reads both after each line.
template <typename Check>
void ExpectPrunedMatchesUnpruned(const std::vector<std::string>& stream,
                                 const Check& check) {
  std::string text = "comptx-trace v1\n";
  for (const std::string& line : stream) text += line + "\n";
  text += "end\n";
  CertifierOptions unpruned_options;
  unpruned_options.auto_prune = false;
  ExpectPrefixAgreement(text);
  ExpectPrefixAgreement(text, unpruned_options);
  Certifier pruned;
  Certifier unpruned(unpruned_options);
  for (const std::string& line : stream) {
    auto event = workload::ParseTraceEventLine(line);
    ASSERT_TRUE(event.ok()) << line;
    ASSERT_TRUE(pruned.Ingest(*event).ok()) << line;
    ASSERT_TRUE(unpruned.Ingest(*event).ok()) << line;
    ASSERT_EQ(pruned.Certifiable(), unpruned.Certifiable()) << line;
    check(line, pruned.Stats(), unpruned.Stats());
  }
  ASSERT_FALSE(pruned.Certifiable());
  const OnlineFailure p = *pruned.Verdict().failure;
  const OnlineFailure u = *unpruned.Verdict().failure;
  EXPECT_EQ(p.level, u.level);
  EXPECT_EQ(p.step, u.step);
  EXPECT_EQ(p.witness, u.witness);
}

TEST(ImpliedPairs, PruningTheMiddleOfAnOrderChainKeepsTheVerdict) {
  // Leaves a -> b -> c -> d over T1..T4.  Committing T2 first leaves it
  // pinned by a -> b; committing T1 releases T1 and then T2, the chain's
  // middle, so only c -> d stays a generator.  The chain then grows
  // through d to e, a conflict on (c, e) is found closed through d, and
  // an input order contradicting it fails.
  ExpectPrunedMatchesUnpruned(
      {"schedule S", "root 0 T1", "leaf 0 a", "root 0 T2", "leaf 2 b",
       "root 0 T3", "leaf 4 c", "root 0 T4", "leaf 6 d", "conflict 1 3",
       "weak_out 1 3", "conflict 3 5", "weak_out 3 5", "weak_out 5 7",
       "commit 2", "commit 0", "root 0 T5", "leaf 8 e", "weak_out 7 9",
       "conflict 5 9", "weak_in 0 8 4"},
      [](const std::string& line, const CertifierStats& pruned,
         const CertifierStats& unpruned) {
        if (line == "commit 2") {
          EXPECT_EQ(pruned.pruned_nodes, 0u);
        }
        if (line == "commit 0") {
          EXPECT_EQ(pruned.pruned_nodes, 4u);
          EXPECT_EQ(pruned.weak_output_generators, 1u);
          EXPECT_EQ(unpruned.weak_output_generators, 3u);
        }
      });
  // Subtransactions t1 -> t2 -> t3 on S, no conflict among them: no front
  // graph holds an edge into t2, and only the generator (t1, t2) keeps the
  // committed T2 from going.  Pruning it would cut the path that a later
  // conflict on (t1, t3) needs to order T1 before T3.
  ExpectPrunedMatchesUnpruned(
      {"schedule S", "schedule R", "root 0 T1", "sub 0 1 t1", "root 0 T2",
       "sub 2 1 t2", "root 0 T3", "sub 4 1 t3", "weak_out 1 3",
       "weak_out 3 5", "commit 2", "conflict 1 5", "weak_in 0 4 0"},
      [](const std::string& line, const CertifierStats& pruned,
         const CertifierStats&) {
        if (line == "commit 2") {
          EXPECT_EQ(pruned.pruned_nodes, 0u);
        }
      });
}

}  // namespace
}  // namespace comptx::online
