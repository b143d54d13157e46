#include "core/composite_system.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/builder.h"
#include "test_helpers.h"

namespace comptx {
namespace {

TEST(CompositeSystemTest, ConstructionBasics) {
  CompositeSystem cs;
  ScheduleId top = cs.AddSchedule("top");
  ScheduleId bottom = cs.AddSchedule("bottom");
  EXPECT_EQ(cs.ScheduleCount(), 2u);

  auto root = cs.AddRootTransaction(top, "T1");
  ASSERT_TRUE(root.ok());
  auto sub = cs.AddSubtransaction(*root, bottom, "t1");
  ASSERT_TRUE(sub.ok());
  auto leaf = cs.AddLeaf(*sub, "x");
  ASSERT_TRUE(leaf.ok());

  EXPECT_TRUE(cs.node(*root).IsRoot());
  EXPECT_TRUE(cs.node(*sub).IsTransaction());
  EXPECT_FALSE(cs.node(*sub).IsRoot());
  EXPECT_TRUE(cs.node(*leaf).IsLeaf());
  EXPECT_EQ(cs.node(*sub).parent, *root);
  EXPECT_EQ(cs.node(*sub).owner_schedule, bottom);
  EXPECT_EQ(cs.HostScheduleOf(*sub), top);
  EXPECT_EQ(cs.HostScheduleOf(*leaf), bottom);
  EXPECT_FALSE(cs.HostScheduleOf(*root).valid());
  EXPECT_EQ(cs.node(*sub).host, top);
  EXPECT_EQ(cs.node(*leaf).host, bottom);
}

TEST(CompositeSystemTest, NodeRecordHoldsNoRelations) {
  // Ids, name, children and tags only (LP64 with a 32-byte std::string):
  // the intra orders live in the system, one relation per kind.
  if (sizeof(void*) != 8 || sizeof(std::string) != 32) GTEST_SKIP();
  EXPECT_LE(sizeof(Node), 96u);
}

TEST(CompositeSystemTest, RejectsBadReferences) {
  CompositeSystem cs;
  ScheduleId s = cs.AddSchedule("s");
  EXPECT_FALSE(cs.AddRootTransaction(ScheduleId(9), "T").ok());
  auto root = cs.AddRootTransaction(s, "T");
  ASSERT_TRUE(root.ok());
  auto leaf = cs.AddLeaf(*root, "x");
  ASSERT_TRUE(leaf.ok());
  // Leaves cannot parent anything.
  EXPECT_FALSE(cs.AddLeaf(*leaf, "y").ok());
  EXPECT_FALSE(cs.AddSubtransaction(*leaf, s, "t").ok());
}

TEST(CompositeSystemTest, RejectsDirectSelfInvocation) {
  CompositeSystem cs;
  ScheduleId s = cs.AddSchedule("s");
  auto root = cs.AddRootTransaction(s, "T");
  ASSERT_TRUE(root.ok());
  // An operation of T scheduled by T's own scheduler = s invoking itself.
  EXPECT_FALSE(cs.AddSubtransaction(*root, s, "t").ok());
}

TEST(CompositeSystemTest, RootsLeavesOperations) {
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  const CompositeSystem& cs = stack.cs;
  EXPECT_EQ(cs.Roots(), (std::vector<NodeId>{stack.t1, stack.t2}));
  EXPECT_EQ(cs.Leaves(), (std::vector<NodeId>{stack.x1, stack.x2}));
  EXPECT_EQ(cs.OperationsOf(ScheduleId(0)),
            (std::vector<NodeId>{stack.s1, stack.s2}));
  EXPECT_EQ(cs.OperationsOf(ScheduleId(1)),
            (std::vector<NodeId>{stack.x1, stack.x2}));
}

TEST(CompositeSystemTest, DescendantsAndRootOf) {
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  const CompositeSystem& cs = stack.cs;
  EXPECT_EQ(cs.Descendants(stack.t1),
            (std::vector<NodeId>{stack.s1, stack.x1}));
  EXPECT_EQ(cs.RootOf(stack.x2), stack.t2);
  EXPECT_EQ(cs.RootOf(stack.t1), stack.t1);
}

TEST(CompositeSystemTest, PairMutatorsValidateHostSchedule) {
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  CompositeSystem& cs = stack.cs;
  // x1 (SB op) and s2 (ST op) are not co-scheduled.
  EXPECT_FALSE(cs.AddConflict(stack.x1, stack.s2).ok());
  EXPECT_FALSE(cs.AddWeakOutput(stack.x1, stack.s2).ok());
  // Reflexive pairs rejected.
  EXPECT_FALSE(cs.AddWeakOutput(stack.x1, stack.x1).ok());
  // Roots are not operations of any schedule.
  EXPECT_FALSE(cs.AddConflict(stack.t1, stack.t2).ok());
  // Input orders need transactions of the named schedule.
  EXPECT_FALSE(cs.AddWeakInput(ScheduleId(0), stack.s1, stack.s2).ok());
  EXPECT_TRUE(cs.AddWeakInput(ScheduleId(1), stack.s1, stack.s2).ok());
  // Intra orders need operations of the named transaction.
  EXPECT_FALSE(cs.AddIntraWeak(stack.t1, stack.x1, stack.x2).ok());
  EXPECT_TRUE(cs.AddIntraWeak(stack.s1, stack.x1, stack.x1).ok() == false);
}

TEST(CompositeSystemTest, StrongImpliesWeak) {
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  CompositeSystem& cs = stack.cs;
  ASSERT_TRUE(cs.AddStrongOutput(stack.x1, stack.x2).ok());
  EXPECT_TRUE(cs.schedule(ScheduleId(1)).weak_output.Contains(stack.x1,
                                                              stack.x2));
  ASSERT_TRUE(cs.AddStrongInput(ScheduleId(1), stack.s1, stack.s2).ok());
  EXPECT_TRUE(
      cs.schedule(ScheduleId(1)).weak_input.Contains(stack.s1, stack.s2));
}

TEST(CompositeSystemTest, CloneIsDeep) {
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  CompositeSystem copy = stack.cs.Clone();
  ASSERT_TRUE(copy.AddConflict(stack.s1, stack.s2).ok());
  EXPECT_TRUE(copy.schedule(ScheduleId(0)).conflicts.Contains(stack.s1,
                                                              stack.s2));
  EXPECT_FALSE(stack.cs.schedule(ScheduleId(0))
                   .conflicts.Contains(stack.s1, stack.s2));
}

TEST(CompositeSystemTest, ReleaseSubtreeDropsItsIntraRows) {
  analysis::CompositeSystemBuilder b;
  ScheduleId top = b.Schedule("top");
  ScheduleId bottom = b.Schedule("bottom");
  // Per root {root, sub, leaf, x, y}: a strong pair sourced at an internal
  // node and a weak pair sourced at a leaf.
  std::vector<NodeId> trees[2];
  for (int r = 0; r < 2; ++r) {
    const std::string n = std::to_string(r);
    NodeId root = b.Root(top, "T" + n);
    NodeId sub = b.Sub(root, bottom, "s" + n);
    NodeId leaf = b.Leaf(root, "a" + n);
    NodeId x = b.Leaf(sub, "x" + n);
    NodeId y = b.Leaf(sub, "y" + n);
    b.IntraStrong(root, sub, leaf);
    b.IntraWeak(sub, x, y);
    trees[r] = {root, sub, leaf, x, y};
  }
  CompositeSystem cs = std::move(b.Take());
  const CompositeSystem copy = cs.Clone();
  ASSERT_TRUE(cs.ReleaseSubtree(trees[0][0]).ok());

  for (const Relation* intra : {&cs.weak_intra(), &cs.strong_intra()}) {
    for (size_t i = 0; i < intra->SourceCount(); ++i) {
      for (NodeId gone : trees[0]) EXPECT_NE(intra->SourceAt(i), gone);
    }
  }
  using Pairs = std::vector<std::pair<NodeId, NodeId>>;
  const std::vector<NodeId>& kept = trees[1];
  EXPECT_EQ(cs.weak_intra().Pairs(),
            (Pairs{{kept[1], kept[2]}, {kept[3], kept[4]}}));
  EXPECT_EQ(cs.strong_intra().Pairs(), (Pairs{{kept[1], kept[2]}}));
  // The clone taken before the release keeps both roots' pairs.
  EXPECT_EQ(copy.weak_intra().PairCount(), 4u);
  EXPECT_EQ(copy.strong_intra().PairCount(), 2u);
}

TEST(SubtreeIndexTest, MembershipQueries) {
  testing::TwoLevelStack stack =
      testing::MakeTwoLevelStack(/*t1_first=*/true, /*top_conflict=*/false);
  SubtreeIndex index(stack.cs);
  EXPECT_TRUE(index.InSubtree(stack.t1, stack.t1));
  EXPECT_TRUE(index.InSubtree(stack.t1, stack.s1));
  EXPECT_TRUE(index.InSubtree(stack.t1, stack.x1));
  EXPECT_FALSE(index.InSubtree(stack.t1, stack.x2));
  EXPECT_FALSE(index.InSubtree(stack.s1, stack.t1));
}

}  // namespace
}  // namespace comptx
