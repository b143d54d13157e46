#include "workload/trace.h"

#include <gtest/gtest.h>

#include <iterator>
#include <utility>

#include "analysis/figures.h"
#include "core/correctness.h"
#include "workload/workload_spec.h"

namespace comptx {
namespace {

TEST(TraceTest, RoundTripsFigure4) {
  CompositeSystem original = analysis::MakeFigure4().system;
  auto text = workload::SaveTrace(original);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto loaded = workload::LoadTrace(*text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NodeCount(), original.NodeCount());
  ASSERT_EQ(loaded->ScheduleCount(), original.ScheduleCount());
  EXPECT_TRUE(loaded->Validate().ok());
  // Identical behaviour after the round trip.
  EXPECT_TRUE(IsCompC(*loaded));
  auto retext = workload::SaveTrace(*loaded);
  ASSERT_TRUE(retext.ok());
  EXPECT_EQ(*text, *retext);
}

TEST(TraceTest, RoundTripsGeneratedSystems) {
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kLayeredDag;
  spec.execution.conflict_prob = 0.4;
  spec.execution.disorder_prob = 0.3;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto cs = workload::GenerateSystem(spec, seed);
    ASSERT_TRUE(cs.ok());
    auto text = workload::SaveTrace(*cs);
    ASSERT_TRUE(text.ok());
    auto loaded = workload::LoadTrace(*text);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(IsCompC(*cs), IsCompC(*loaded)) << "seed " << seed;
  }
}

// The text twin of EventCodecTest.BatchAppendOfEveryKindKeepsItsCapturedBytes:
// one event of every kind, formatted into the lines captured before the
// field layouts moved into one schema table, and each line parses back
// into the same event.
TEST(TraceTest, EveryKindKeepsItsCapturedTextLine) {
  using workload::TraceEventKind;
  struct Golden {
    TraceEventKind kind;
    const char* name;
    uint32_t schedule, parent, a, b;
    const char* line;
  };
  const uint32_t none = kInvalidIndex;
  const Golden golden[] = {
      {TraceEventKind::kSchedule, "S0", none, none, none, none, "schedule S0"},
      {TraceEventKind::kRoot, "T1", 0, none, none, none, "root 0 T1"},
      {TraceEventKind::kSub, "sub", 1, 130, none, none, "sub 130 1 sub"},
      {TraceEventKind::kLeaf, "x", none, 2, none, none, "leaf 2 x"},
      {TraceEventKind::kConflict, "", none, none, 3, 16384,
       "conflict 3 16384"},
      {TraceEventKind::kWeakOutput, "", none, none, 127, 128,
       "weak_out 127 128"},
      {TraceEventKind::kStrongOutput, "", none, none, 5, 6, "strong_out 5 6"},
      {TraceEventKind::kWeakInput, "", 1, none, 7, 8, "weak_in 1 7 8"},
      {TraceEventKind::kStrongInput, "", 2, none, 9, 10, "strong_in 2 9 10"},
      {TraceEventKind::kIntraWeak, "", none, 11, 12, 13,
       "intra_weak 11 12 13"},
      {TraceEventKind::kIntraStrong, "", none, 14, 15, 300,
       "intra_strong 14 15 300"},
      {TraceEventKind::kCommit, "", none, 1, none, none, "commit 1"},
      {TraceEventKind::kCommitThrough, "", none, none, 70000, none,
       "commit_through 70000"},
      {TraceEventKind::kAdtDecl, "counter", none, none, none, none,
       "adt counter"},
      {TraceEventKind::kAdtOp, "inc", none, none, 0, none, "adtop 0 inc"},
      {TraceEventKind::kCommute, "", none, none, 0, 1, "commute 0 1"},
      {TraceEventKind::kClash, "", none, none, 1, 2, "clash 1 2"},
      {TraceEventKind::kTag, "", none, 3, 1, 4294967294u,
       "tag 3 1 4294967294"},
  };
  ASSERT_EQ(std::size(golden), static_cast<size_t>(TraceEventKind::kTag) + 1);
  for (const Golden& g : golden) {
    workload::TraceEvent e;
    e.kind = g.kind;
    e.name = g.name;
    e.schedule = g.schedule;
    e.parent = g.parent;
    e.a = g.a;
    e.b = g.b;
    EXPECT_EQ(workload::FormatTraceEvent(e), g.line);
    auto parsed = workload::ParseTraceEventLine(g.line);
    ASSERT_TRUE(parsed.ok()) << g.line << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, e.kind) << g.line;
    EXPECT_EQ(parsed->name, e.name) << g.line;
    EXPECT_EQ(parsed->schedule, e.schedule) << g.line;
    EXPECT_EQ(parsed->parent, e.parent) << g.line;
    EXPECT_EQ(parsed->a, e.a) << g.line;
    EXPECT_EQ(parsed->b, e.b) << g.line;
  }
}

// Malformed lines keep their captured diagnostics, and a numeric field
// reads the way istream extraction reads a uint32_t.
TEST(TraceTest, MalformedLinesKeepTheirCapturedMessages) {
  const std::pair<const char*, const char*> cases[] = {
      {"bogus 1", "unknown record kind 'bogus'"},
      {"", "unknown record kind ''"},
      {"root x", "malformed root record"},
      {"root 1", "malformed root record"},
      {"sub 1 2", "malformed sub record"},
      {"conflict 1", "malformed conflict record"},
      {"commit_through", "malformed commit_through record"},
      {"tag 1 2", "malformed tag record"},
      {"conflict 4294967296 1", "malformed conflict record"},
      {"end", "'end' is not an event"},
      // Numeric fields are strict unsigned decimals, and nothing may
      // follow the last field.
      {"conflict 1 2 junk", "malformed conflict record"},
      {"conflict -1 2", "malformed conflict record"},
      {"conflict +3 2", "malformed conflict record"},
      {"adtop -1 x", "malformed adtop record"},
      {"conflict 0x1 2", "malformed conflict record"},
      {"root 0 T extra", "malformed root record"},
  };
  for (const auto& [line, message] : cases) {
    auto parsed = workload::ParseTraceEventLine(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().message(), message) << line;
  }
  const std::pair<const char*, const char*> accepted[] = {
      {"conflict 1 2", "conflict 1 2"},
      {"conflict  01\t2 ", "conflict 1 2"},
      {"conflict 4294967295 2", "conflict 4294967295 2"},
      {"adtop 3 x", "adtop 3 x"},
  };
  for (const auto& [line, formatted] : accepted) {
    auto parsed = workload::ParseTraceEventLine(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
    EXPECT_EQ(workload::FormatTraceEvent(*parsed), formatted) << line;
  }
}

TEST(TraceTest, RejectsMissingHeader) {
  EXPECT_FALSE(workload::LoadTrace("schedule S\nend\n").ok());
}

TEST(TraceTest, RejectsMissingEnd) {
  EXPECT_FALSE(workload::LoadTrace("comptx-trace v1\nschedule S\n").ok());
}

TEST(TraceTest, RejectsUnknownRecord) {
  auto result =
      workload::LoadTrace("comptx-trace v1\nfrobnicate 1 2\nend\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(TraceTest, RejectsBadReferences) {
  // Leaf refers to a nonexistent parent node.
  auto result = workload::LoadTrace(
      "comptx-trace v1\nschedule S\nleaf 5 x\nend\n");
  EXPECT_FALSE(result.ok());
}

TEST(TraceTest, RejectsWhitespaceNames) {
  CompositeSystem cs;
  cs.AddSchedule("has space");
  EXPECT_FALSE(workload::SaveTrace(cs).ok());
}

}  // namespace
}  // namespace comptx
