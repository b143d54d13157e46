#include <gtest/gtest.h>

#include <utility>

#include "analysis/builder.h"
#include "analysis/figures.h"
#include "core/composite_system.h"
#include "test_helpers.h"

namespace comptx {
namespace {

TEST(ValidateTest, WellFormedStackPasses) {
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/true);
  EXPECT_TRUE(stack.cs.Validate().ok()) << stack.cs.Validate().ToString();
}

TEST(ValidateTest, AllFiguresValid) {
  EXPECT_TRUE(analysis::MakeFigure1().system.Validate().ok());
  EXPECT_TRUE(analysis::MakeFigure2().system.Validate().ok());
  EXPECT_TRUE(analysis::MakeFigure3().system.Validate().ok());
  EXPECT_TRUE(analysis::MakeFigure4().system.Validate().ok());
}

TEST(ValidateTest, UnorderedConflictRejected) {
  // Def 3.1c: conflicting operations must be weak-output ordered.
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  ASSERT_TRUE(stack.cs.AddConflict(stack.s1, stack.s2).ok());
  Status status = stack.cs.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("left unordered"), std::string::npos);
}

TEST(ValidateTest, ConflictOrderedBothWaysRejected) {
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  ASSERT_TRUE(stack.cs.AddWeakOutput(stack.x2, stack.x1).ok());
  Status status = stack.cs.Validate();
  EXPECT_FALSE(status.ok());
}

TEST(ValidateTest, ConflictAgainstInputOrderRejected) {
  // Def 3.1a: weak input s2 -> s1, but the conflicting leaves are ordered
  // x1 (of s1) before x2 (of s2).
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  ASSERT_TRUE(
      stack.cs.AddWeakInput(ScheduleId(1), stack.s2, stack.s1).ok());
  Status status = stack.cs.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("against the weak input order"),
            std::string::npos);
}

TEST(ValidateTest, IntraOrderMustBeHonored) {
  // Def 3.2: a transaction's intra order must appear in the output order.
  analysis::CompositeSystemBuilder b;
  ScheduleId s = b.Schedule("S");
  NodeId t = b.Root(s, "T");
  NodeId x = b.Leaf(t, "x");
  NodeId y = b.Leaf(t, "y");
  b.IntraWeak(t, x, y);
  CompositeSystem cs = std::move(b.Take());
  Status status = cs.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("intra-transaction"), std::string::npos);
  ASSERT_TRUE(cs.AddWeakOutput(x, y).ok());
  EXPECT_TRUE(cs.Validate().ok());
}

TEST(ValidateTest, StrongInputForcesStrongOutputs) {
  // Def 3.3: strong input order requires all operation pairs strongly
  // ordered in the output.
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  ASSERT_TRUE(
      stack.cs.AddStrongInput(ScheduleId(1), stack.s1, stack.s2).ok());
  Status status = stack.cs.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Def 3.3"), std::string::npos);
  ASSERT_TRUE(stack.cs.AddStrongOutput(stack.x1, stack.x2).ok());
  EXPECT_TRUE(stack.cs.Validate().ok());
}

TEST(ValidateTest, OutputOrderMustPropagateToCallee) {
  // Def 4.7: the top schedule orders s1 before s2 (conflicting), both
  // transactions of SB, but SB's input order was not told.
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  ASSERT_TRUE(stack.cs.AddConflict(stack.s1, stack.s2).ok());
  ASSERT_TRUE(stack.cs.AddWeakOutput(stack.s1, stack.s2).ok());
  Status status = stack.cs.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Def 4.7"), std::string::npos);
  ASSERT_TRUE(
      stack.cs.AddWeakInput(ScheduleId(1), stack.s1, stack.s2).ok());
  EXPECT_TRUE(stack.cs.Validate().ok());
}

TEST(ValidateTest, CyclicWeakOutputRejected) {
  analysis::CompositeSystemBuilder b;
  ScheduleId s = b.Schedule("S");
  NodeId t1 = b.Root(s, "T1");
  NodeId t2 = b.Root(s, "T2");
  NodeId x = b.Leaf(t1, "x");
  NodeId y = b.Leaf(t2, "y");
  CompositeSystem cs = std::move(b.Take());
  ASSERT_TRUE(cs.AddWeakOutput(x, y).ok());
  ASSERT_TRUE(cs.AddWeakOutput(y, x).ok());
  Status status = cs.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cyclic"), std::string::npos);
}

TEST(ValidateTest, CyclicInputOrderRejected) {
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  ASSERT_TRUE(
      stack.cs.AddWeakInput(ScheduleId(1), stack.s1, stack.s2).ok());
  ASSERT_TRUE(
      stack.cs.AddWeakInput(ScheduleId(1), stack.s2, stack.s1).ok());
  EXPECT_FALSE(stack.cs.Validate().ok());
}

TEST(ValidateTest, StrongIntraOutsideWeakIntraRejected) {
  analysis::CompositeSystemBuilder b;
  ScheduleId s = b.Schedule("S");
  NodeId t = b.Root(s, "T");
  NodeId x = b.Leaf(t, "x");
  NodeId y = b.Leaf(t, "y");
  CompositeSystem cs = std::move(b.Take());
  // Bypass the typed mutators to inject the inconsistency.
  cs.mutable_strong_intra().Add(x, y);
  EXPECT_FALSE(cs.Validate().ok());
}

TEST(ValidateTest, IntraPairsOutsideOneTransactionRejected) {
  analysis::CompositeSystemBuilder b;
  ScheduleId top = b.Schedule("top");
  ScheduleId bottom = b.Schedule("bottom");
  NodeId t = b.Root(top, "T");
  NodeId s = b.Sub(t, bottom, "s");
  NodeId x = b.Leaf(s, "x");
  NodeId y = b.Leaf(t, "y");
  const CompositeSystem base = std::move(b.Take());
  ASSERT_TRUE(base.Validate().ok());
  // Injected raw: sourced at a root, between cousins, and reflexive.
  const std::pair<NodeId, NodeId> pairs[] = {{t, y}, {x, y}, {y, y}};
  for (const auto& [from, to] : pairs) {
    for (const bool strong : {false, true}) {
      CompositeSystem cs = base.Clone();
      (strong ? cs.mutable_strong_intra() : cs.mutable_weak_intra())
          .Add(from, to);
      EXPECT_FALSE(cs.Validate().ok())
          << "(" << from << ", " << to << ") strong=" << strong;
    }
  }
}

}  // namespace
}  // namespace comptx
