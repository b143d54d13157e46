// Semantic commutativity layer tests: CommutativitySpec units and builtin
// Weihl tables, EffectiveConflict masking semantics, persistence of the
// five spec event kinds across every serialization surface (text trace,
// binary wire protocol, WAL), the deterministic shared-bottom semantic
// rule of the static analyzer, the 1000-trace semantic-static vs dynamic
// agreement sweep over ADT workloads, and agreement of the online
// certifier with batch CheckCompC and the analyzer on semantic sessions.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/builder.h"
#include "core/commutativity.h"
#include "core/composite_system.h"
#include "core/correctness.h"
#include "durability/wal.h"
#include "online/certifier.h"
#include "staticcheck/analyzer.h"
#include "testing/events.h"
#include "util/rng.h"
#include "workload/event_codec.h"
#include "workload/event_schema.h"
#include "workload/schedule_gen.h"
#include "workload/topology_gen.h"
#include "workload/trace.h"

#include "test_helpers.h"

namespace comptx {
namespace {

using staticcheck::AnalyzeConfiguration;
using staticcheck::SafetyVerdict;

ReductionOptions PrefixOptions() {
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  return options;
}

/// The smallest shared-bottom configuration the semantic rule decides:
/// two roots on private depth-2 chains meeting in a common bottom
/// schedule Sb, whose single cross-root conflict pair is tagged on the
/// same counter instance.  The chains make the order 3, so the shape is
/// a general DAG — at order 2 this degenerates to a join and Theorem 4
/// decides it bit-level, never reaching the semantic rule.  `commuting`
/// picks inc/inc (erased, semantically SAFE) or inc/read (a real
/// conflict, so the analyzer must punt to dynamic).
CompositeSystem MakeSharedBottomSemantic(bool commuting) {
  analysis::CompositeSystemBuilder b;
  ScheduleId st1 = b.Schedule("St1");
  ScheduleId st2 = b.Schedule("St2");
  ScheduleId sm1 = b.Schedule("Sm1");
  ScheduleId sm2 = b.Schedule("Sm2");
  ScheduleId sb = b.Schedule("Sb");
  NodeId t1 = b.Root(st1, "T1");
  NodeId t2 = b.Root(st2, "T2");
  NodeId m1 = b.Sub(t1, sm1, "m1");
  NodeId m2 = b.Sub(t2, sm2, "m2");
  NodeId a1 = b.Sub(m1, sb, "a1");
  NodeId a2 = b.Sub(m2, sb, "a2");
  NodeId x1 = b.Leaf(a1, "x1");
  NodeId x2 = b.Leaf(a2, "x2");
  b.Conflict(x1, x2);
  b.WeakOut(x1, x2);
  CompositeSystem cs = std::move(b.Take());
  uint32_t counter = cs.DeclareAdt("counter").value();
  uint32_t inc = cs.DeclareAdtOp(counter, "inc").value();
  uint32_t read = cs.DeclareAdtOp(counter, "read").value();
  COMPTX_CHECK(cs.DeclareCommute(inc, inc).ok());
  COMPTX_CHECK(cs.DeclareClash(inc, read).ok());
  COMPTX_CHECK(cs.TagOperation(x1, inc, 0).ok());
  COMPTX_CHECK(cs.TagOperation(x2, commuting ? inc : read, 0).ok());
  return cs;
}

// ---- CommutativitySpec units --------------------------------------------

TEST(CommutativitySpec, BuiltinCounterTableMatchesTheLiterature) {
  CommutativitySpec spec;
  auto counter = DeclareBuiltinAdt(spec, BuiltinAdt::kCounter);
  ASSERT_TRUE(counter.ok());
  uint32_t inc = spec.FindClass(*counter, "inc");
  uint32_t dec = spec.FindClass(*counter, "dec");
  uint32_t read = spec.FindClass(*counter, "read");
  ASSERT_NE(inc, kInvalidIndex);
  ASSERT_NE(dec, kInvalidIndex);
  ASSERT_NE(read, kInvalidIndex);
  // Blind updates commute with each other; reads clash with updates.
  EXPECT_EQ(spec.Lookup(inc, inc), CommuteEntry::kCommutes);
  EXPECT_EQ(spec.Lookup(inc, dec), CommuteEntry::kCommutes);
  EXPECT_EQ(spec.Lookup(dec, dec), CommuteEntry::kCommutes);
  EXPECT_EQ(spec.Lookup(read, read), CommuteEntry::kCommutes);
  EXPECT_EQ(spec.Lookup(inc, read), CommuteEntry::kConflicts);
  EXPECT_EQ(spec.Lookup(dec, read), CommuteEntry::kConflicts);
  // The builtin tables are total: all 6 unordered pairs declared.
  EXPECT_EQ(spec.CountEntries(CommuteEntry::kCommutes), 4u);
  EXPECT_EQ(spec.CountEntries(CommuteEntry::kConflicts), 2u);
  EXPECT_EQ(spec.ClassLabel(inc), "counter.inc");
  EXPECT_EQ(spec.FindAdt("counter"), *counter);
}

TEST(CommutativitySpec, BuiltinQueueAndEscrowTables) {
  CommutativitySpec spec;
  auto queue = DeclareBuiltinAdt(spec, BuiltinAdt::kQueue);
  auto escrow = DeclareBuiltinAdt(spec, BuiltinAdt::kEscrow);
  ASSERT_TRUE(queue.ok());
  ASSERT_TRUE(escrow.ok());
  uint32_t enq = spec.FindClass(*queue, "enq");
  uint32_t deq = spec.FindClass(*queue, "deq");
  // FIFO order is observable: nothing commutes, even enq with enq.
  EXPECT_EQ(spec.Lookup(enq, enq), CommuteEntry::kConflicts);
  EXPECT_EQ(spec.Lookup(enq, deq), CommuteEntry::kConflicts);
  EXPECT_EQ(spec.Lookup(deq, deq), CommuteEntry::kConflicts);
  uint32_t deposit = spec.FindClass(*escrow, "deposit");
  uint32_t withdraw = spec.FindClass(*escrow, "withdraw");
  uint32_t read = spec.FindClass(*escrow, "read");
  EXPECT_EQ(spec.Lookup(deposit, withdraw), CommuteEntry::kCommutes);
  EXPECT_EQ(spec.Lookup(deposit, read), CommuteEntry::kConflicts);
  // Class indices are global across ADTs, in declaration order.
  EXPECT_LT(deq, deposit);
  EXPECT_EQ(spec.AdtCount(), 2u);
  EXPECT_EQ(spec.ClassCount(), 5u);
  // Re-declaring a builtin under its taken name fails.
  EXPECT_FALSE(DeclareBuiltinAdt(spec, BuiltinAdt::kQueue).ok());
}

TEST(CommutativitySpec, EntryDeclarationRules) {
  CommutativitySpec spec;
  auto adt = spec.DeclareAdt("counter");
  ASSERT_TRUE(adt.ok());
  EXPECT_FALSE(spec.DeclareAdt("counter").ok());  // duplicate ADT name
  auto inc = spec.DeclareOpClass(*adt, "inc");
  auto dec = spec.DeclareOpClass(*adt, "dec");
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(dec.ok());
  EXPECT_FALSE(spec.DeclareOpClass(*adt, "inc").ok());  // duplicate class
  ASSERT_TRUE(spec.SetEntry(*inc, *dec, CommuteEntry::kCommutes).ok());
  // Re-declaring the same value is idempotent; contradiction is an error
  // even through the mirrored pair.
  EXPECT_TRUE(spec.SetEntry(*dec, *inc, CommuteEntry::kCommutes).ok());
  EXPECT_FALSE(spec.SetEntry(*dec, *inc, CommuteEntry::kConflicts).ok());
  // The table is symmetric; undeclared pairs read as kUnspecified.
  EXPECT_EQ(spec.Lookup(*dec, *inc), CommuteEntry::kCommutes);
  EXPECT_EQ(spec.Lookup(*inc, *inc), CommuteEntry::kUnspecified);
  EXPECT_FALSE(spec.Commutes(*inc, *inc));
}

// ---- EffectiveConflict masking ------------------------------------------

TEST(SemanticConflicts, EffectiveConflictMasksExactlyTheCommutingPairs) {
  analysis::CompositeSystemBuilder b;
  ScheduleId s = b.Schedule("S");
  NodeId t1 = b.Root(s, "T1");
  NodeId t2 = b.Root(s, "T2");
  NodeId x1 = b.Leaf(t1, "x1");
  NodeId y1 = b.Leaf(t1, "y1");
  NodeId z1 = b.Leaf(t1, "z1");
  NodeId w1 = b.Leaf(t1, "w1");
  NodeId x2 = b.Leaf(t2, "x2");
  NodeId y2 = b.Leaf(t2, "y2");
  NodeId z2 = b.Leaf(t2, "z2");
  NodeId w2 = b.Leaf(t2, "w2");
  for (auto [p, q] : {std::pair{x1, x2}, {y1, y2}, {z1, z2}, {w1, w2}}) {
    b.Conflict(p, q);
    b.WeakOut(p, q);
  }
  CompositeSystem cs = std::move(b.Take());

  // Without a spec nothing commutes and every bit is effective.
  EXPECT_FALSE(cs.HasSpec());
  EXPECT_FALSE(cs.SemanticallyCommutes(x1, x2));
  EXPECT_TRUE(cs.EffectiveConflict(s, x1, x2));

  uint32_t counter = cs.DeclareAdt("counter").value();
  uint32_t inc = cs.DeclareAdtOp(counter, "inc").value();
  uint32_t read = cs.DeclareAdtOp(counter, "read").value();
  ASSERT_TRUE(cs.DeclareCommute(inc, inc).ok());
  ASSERT_TRUE(cs.DeclareClash(inc, read).ok());

  // Same instance, commuting classes: the bit is erased.
  ASSERT_TRUE(cs.TagOperation(x1, inc, 0).ok());
  ASSERT_TRUE(cs.TagOperation(x2, inc, 0).ok());
  EXPECT_TRUE(cs.SemanticallyCommutes(x1, x2));
  EXPECT_FALSE(cs.EffectiveConflict(s, x1, x2));

  // Same instance, clashing classes: the bit stays.
  ASSERT_TRUE(cs.TagOperation(y1, inc, 0).ok());
  ASSERT_TRUE(cs.TagOperation(y2, read, 0).ok());
  EXPECT_FALSE(cs.SemanticallyCommutes(y1, y2));
  EXPECT_TRUE(cs.EffectiveConflict(s, y1, y2));

  // Different instances commute regardless of the table.
  ASSERT_TRUE(cs.TagOperation(z1, inc, 1).ok());
  ASSERT_TRUE(cs.TagOperation(z2, read, 2).ok());
  EXPECT_TRUE(cs.SemanticallyCommutes(z1, z2));
  EXPECT_FALSE(cs.EffectiveConflict(s, z1, z2));

  // One untagged member defeats the mask.
  ASSERT_TRUE(cs.TagOperation(w1, inc, 0).ok());
  EXPECT_FALSE(cs.SemanticallyCommutes(w1, w2));
  EXPECT_TRUE(cs.EffectiveConflict(s, w1, w2));

  // EffectiveConflict never *adds* conflicts: unrelated pair stays clear.
  EXPECT_FALSE(cs.EffectiveConflict(s, x1, y2));
}

// ---- Serialization surfaces ---------------------------------------------

TEST(SemanticPersistence, TextTraceRoundTripsSpecTagsAndVerdict) {
  testing::SemanticCrossDemo demo = testing::MakeSemanticCrossDemo(true);
  auto before = CheckCompC(demo.cs);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->correct);  // the tag erases one side of the cycle

  auto text = workload::SaveTrace(demo.cs);
  ASSERT_TRUE(text.ok());
  auto loaded = workload::LoadTrace(*text);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->HasSpec());
  EXPECT_EQ(loaded->spec()->AdtCount(), 1u);
  EXPECT_EQ(loaded->spec()->FindAdt("counter"), 0u);
  EXPECT_TRUE(loaded->SemanticallyCommutes(demo.a1, demo.a2));
  auto after = CheckCompC(*loaded);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->correct, before->correct);

  // The untagged twin of the same execution really is incorrect — the
  // verdict above is carried by the spec, not the shape.
  testing::SemanticCrossDemo raw = testing::MakeSemanticCrossDemo(false);
  auto raw_verdict = CheckCompC(raw.cs);
  ASSERT_TRUE(raw_verdict.ok());
  EXPECT_FALSE(raw_verdict->correct);
}

TEST(SemanticPersistence, BinaryWireCodecRoundTripsSpecEvents) {
  testing::SemanticCrossDemo demo = testing::MakeSemanticCrossDemo(true);
  auto events = testing::SystemToEvents(demo.cs);
  ASSERT_TRUE(events.ok());
  std::string buf;
  for (const workload::TraceEvent& e : *events) {
    workload::AppendEventBinary(buf, e);
  }
  std::vector<workload::TraceEvent> decoded;
  size_t pos = 0;
  while (pos < buf.size()) {
    workload::TraceEvent e;
    ASSERT_TRUE(workload::ReadEventBinary(buf, pos, e).ok()) << pos;
    decoded.push_back(std::move(e));
  }
  ASSERT_EQ(decoded.size(), events->size());
  size_t spec_kinds = 0;
  for (size_t i = 0; i < decoded.size(); ++i) {
    const workload::TraceEvent& a = (*events)[i];
    const workload::TraceEvent& b = decoded[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.schedule, b.schedule) << i;
    EXPECT_EQ(a.parent, b.parent) << i;
    EXPECT_EQ(a.a, b.a) << i;
    EXPECT_EQ(a.b, b.b) << i;
    if (workload::IsAdtLayerEvent(a.kind)) ++spec_kinds;
  }
  // 1 adt + 1 adtop + 1 commute + 2 tags from MakeSemanticCrossDemo.
  EXPECT_EQ(spec_kinds, 5u);
  auto rebuilt = testing::BuildSystem(decoded);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt->SemanticallyCommutes(demo.a1, demo.a2));
}

TEST(SemanticPersistence, WalRoundTripsSpecEvents) {
  testing::SemanticCrossDemo demo = testing::MakeSemanticCrossDemo(true);
  auto events = testing::SystemToEvents(demo.cs);
  ASSERT_TRUE(events.ok());
  std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "semantic_spec.wal";
  durability::Counters counters;
  {
    auto writer = durability::WalWriter::Create(path.string(),
                                                durability::FsyncPolicy::kNone,
                                                &counters);
    ASSERT_TRUE(writer.ok());
    durability::WalRecord record;
    record.type = durability::WalRecordType::kAppend;
    record.seq = 1;
    record.events = *events;
    ASSERT_TRUE((*writer)->Append(record).ok());
  }
  auto scan = durability::ReadWalFile(path.string());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->clean);
  ASSERT_EQ(scan->records.size(), 1u);
  const durability::WalRecord& back = scan->records[0];
  ASSERT_EQ(back.events.size(), events->size());
  for (size_t i = 0; i < back.events.size(); ++i) {
    EXPECT_EQ(back.events[i].kind, (*events)[i].kind) << i;
    EXPECT_EQ(back.events[i].name, (*events)[i].name) << i;
    EXPECT_EQ(back.events[i].parent, (*events)[i].parent) << i;
    EXPECT_EQ(back.events[i].a, (*events)[i].a) << i;
    EXPECT_EQ(back.events[i].b, (*events)[i].b) << i;
  }
  auto rebuilt = testing::BuildSystem(back.events);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_TRUE(rebuilt->HasSpec());
  auto verdict = CheckCompC(*rebuilt);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->correct);
  std::filesystem::remove(path);
}

// ---- Static analyzer: the semantic shared-bottom rule -------------------

TEST(SemanticStatic, SharedBottomRuleDecidesCoveredMeets) {
  CompositeSystem covered = MakeSharedBottomSemantic(/*commuting=*/true);
  staticcheck::StaticAnalysis analysis = AnalyzeConfiguration(covered);
  EXPECT_TRUE(analysis.well_formed);
  EXPECT_EQ(analysis.verdict, SafetyVerdict::kSafe)
      << staticcheck::FormatStaticAnalysis(analysis);
  EXPECT_TRUE(analysis.semantic);
  auto batch = CheckCompC(covered);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->correct);

  // The clashing twin keeps a real cross-root conflict on the shared
  // bottom, so no theorem (bit-level or semantic) may decide it.
  CompositeSystem clashing = MakeSharedBottomSemantic(/*commuting=*/false);
  staticcheck::StaticAnalysis undecided = AnalyzeConfiguration(clashing);
  EXPECT_EQ(undecided.verdict, SafetyVerdict::kNeedsDynamic)
      << staticcheck::FormatStaticAnalysis(undecided);
  EXPECT_FALSE(undecided.semantic);
}

TEST(SemanticStatic, AnalyzerAgreesWithDynamicOnThousandAdtTraces) {
  using workload::AdtMix;
  using workload::TopologyKind;
  const TopologyKind kinds[] = {
      TopologyKind::kStack, TopologyKind::kFork, TopologyKind::kJoin,
      TopologyKind::kLayeredDag, TopologyKind::kSharedBottom};
  const AdtMix mixes[] = {AdtMix::kCounter, AdtMix::kSet, AdtMix::kQueue,
                          AdtMix::kEscrow, AdtMix::kMixed};
  size_t traces = 0;
  size_t decided = 0;
  size_t semantic_fired = 0;
  for (TopologyKind kind : kinds) {
    for (AdtMix mix : mixes) {
      for (uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(1 + seed * 131 + static_cast<uint64_t>(kind) * 17 +
                static_cast<uint64_t>(mix) * 5);
        workload::TopologySpec tspec;
        tspec.kind = kind;
        tspec.depth = 2;
        tspec.branches = 2;
        if (kind == TopologyKind::kSharedBottom) {
          // The smallest shape where the semantic rule can fire: order-3
          // chains (order 2 degenerates to a join, which Theorem 4 owns)
          // with a single cross-root leaf pair on the shared bottom and
          // no intra orders (hence no strong orders) anywhere.
          tspec.depth = 3;
          tspec.roots = 2;
          tspec.fanout = 1;
        } else {
          tspec.roots = 3;
          tspec.fanout = 2;
        }
        CompositeSystem cs = workload::GenerateTopology(tspec, rng);
        workload::ExecutionGenSpec espec;
        espec.adt = mix;
        espec.adt_instances = 1 + static_cast<uint32_t>(seed % 3);
        ASSERT_TRUE(workload::PopulateExecution(cs, espec, rng).ok());
        ++traces;
        staticcheck::AnalyzerOptions aopts;
        aopts.assume_valid = true;  // PopulateExecution output validates
        staticcheck::StaticAnalysis analysis = AnalyzeConfiguration(cs, aopts);
        if (analysis.verdict == SafetyVerdict::kNeedsDynamic) continue;
        ++decided;
        if (analysis.semantic) ++semantic_fired;
        auto batch = CheckCompC(cs);
        ASSERT_TRUE(batch.ok());
        ASSERT_EQ(analysis.verdict == SafetyVerdict::kSafe, batch->correct)
            << workload::TopologyKindToString(kind) << "/"
            << workload::AdtMixToString(mix) << " seed " << seed << "\n"
            << staticcheck::FormatStaticAnalysis(analysis);
      }
    }
  }
  EXPECT_EQ(traces, 1000u);
  EXPECT_GT(decided, 0u);
  // The sweep must exercise the semantic rule itself, not only the
  // bit-level theorems; the shared-bottom shape guarantees occurrences.
  EXPECT_GT(semantic_fired, 0u);
}

// ---- Certifier: online verdicts vs batch and the analyzer ---------------

TEST(SemanticCertifier, SharedBottomTwinsMatchBatchAndAnalyzer) {
  // The commuting twin is semantically SAFE; the clashing twin keeps a
  // real cross-root conflict on the shared bottom, so no theorem decides
  // it.  The online engine must match batch CheckCompC on both.
  for (bool commuting : {true, false}) {
    SCOPED_TRACE(commuting ? "commuting" : "clashing");
    CompositeSystem cs = MakeSharedBottomSemantic(commuting);
    auto events = testing::SystemToEvents(cs);
    ASSERT_TRUE(events.ok());
    online::Certifier certifier;
    for (const workload::TraceEvent& e : *events) {
      ASSERT_TRUE(certifier.Ingest(e).ok());
    }
    auto batch = CheckCompC(cs, PrefixOptions());
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(certifier.Verdict().certifiable, batch->correct);
    staticcheck::StaticAnalysis analysis =
        AnalyzeConfiguration(certifier.system());
    EXPECT_TRUE(analysis.well_formed);
    EXPECT_EQ(analysis.verdict, commuting ? SafetyVerdict::kSafe
                                          : SafetyVerdict::kNeedsDynamic)
        << staticcheck::FormatStaticAnalysis(analysis);
    EXPECT_EQ(analysis.semantic, commuting);
  }
}

TEST(SemanticCertifier, AnalyzerAgreesWithOnlineOnAdtTraces) {
  using workload::AdtMix;
  const AdtMix mixes[] = {AdtMix::kCounter, AdtMix::kEscrow, AdtMix::kMixed};
  size_t decided = 0;
  for (AdtMix mix : mixes) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      Rng rng(7 + seed * 97 + static_cast<uint64_t>(mix));
      workload::TopologySpec tspec;
      tspec.kind = workload::TopologyKind::kSharedBottom;
      tspec.roots = 2;
      tspec.fanout = 1;
      CompositeSystem cs = workload::GenerateTopology(tspec, rng);
      workload::ExecutionGenSpec espec;
      espec.adt = mix;
      espec.adt_instances = 1 + static_cast<uint32_t>(seed % 2);
      ASSERT_TRUE(workload::PopulateExecution(cs, espec, rng).ok());
      auto events = testing::SystemToEvents(cs);
      ASSERT_TRUE(events.ok());
      online::Certifier certifier;
      size_t rejected = certifier.IngestBatch(*events);
      ASSERT_EQ(rejected, 0u);
      auto batch = CheckCompC(cs, PrefixOptions());
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(certifier.Verdict().certifiable, batch->correct)
          << workload::AdtMixToString(mix) << " seed " << seed;
      // An exact analyzer verdict (SAFE/UNSAFE on a well-formed system)
      // must equal the online engine's.
      staticcheck::StaticAnalysis analysis =
          AnalyzeConfiguration(certifier.system());
      if (!analysis.well_formed ||
          analysis.verdict == SafetyVerdict::kNeedsDynamic) {
        continue;
      }
      ++decided;
      EXPECT_EQ(analysis.verdict == SafetyVerdict::kSafe,
                certifier.Certifiable())
          << workload::AdtMixToString(mix) << " seed " << seed << "\n"
          << staticcheck::FormatStaticAnalysis(analysis);
    }
  }
  EXPECT_GT(decided, 0u);
}

}  // namespace
}  // namespace comptx
