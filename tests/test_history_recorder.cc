// Direct tests for the runtime -> formal-model bridge: staged recording,
// abort/commit discipline, and the structure of the built system.

#include "runtime/history_recorder.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/invocation_graph.h"

namespace comptx::runtime {
namespace {

/// Two components: a front office invoking a ledger.
RuntimeSystem MakeNetwork() {
  RuntimeSystem system;
  {
    std::vector<Program> services;
    Program entry;
    entry.steps.push_back(ProgramStep::Local(OpType::kRead, 0));
    entry.steps.push_back(ProgramStep::Invoke(1, 0));
    services.push_back(entry);
    system.components.push_back(std::make_unique<Component>(
        0, "front", 2, std::move(services),
        std::vector<std::vector<bool>>{{true}}));
  }
  {
    std::vector<Program> services;
    services.push_back(Program{{ProgramStep::Local(OpType::kWrite, 0)}});
    system.components.push_back(std::make_unique<Component>(
        1, "ledger", 2, std::move(services),
        std::vector<std::vector<bool>>{{true}}));
  }
  system.roots.push_back({0, 0});
  system.roots.push_back({0, 0});
  return system;
}

TEST(HistoryRecorderTest, BuildsForestMatchingStaging) {
  RuntimeSystem network = MakeNetwork();
  HistoryRecorder recorder(network);
  uint64_t seq = 0;

  auto root0 = recorder.BeginRoot(0, 0, 0);
  recorder.RecordLocalOp(root0, OpType::kRead, 0, ++seq);
  auto sub0 = recorder.BeginSub(root0, 1, 0);
  recorder.RecordLocalOp(sub0, OpType::kWrite, 0, ++seq);
  recorder.CommitNode(sub0, ++seq);
  recorder.CommitNode(root0, ++seq);
  recorder.CommitRoot(0);

  auto root1 = recorder.BeginRoot(1, 0, 0);
  recorder.RecordLocalOp(root1, OpType::kRead, 0, ++seq);
  auto sub1 = recorder.BeginSub(root1, 1, 0);
  recorder.RecordLocalOp(sub1, OpType::kWrite, 0, ++seq);
  recorder.CommitNode(sub1, ++seq);
  recorder.CommitNode(root1, ++seq);
  recorder.CommitRoot(1);

  auto cs = recorder.BuildSystem();
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  EXPECT_EQ(cs->ScheduleCount(), 2u);
  EXPECT_EQ(cs->Roots().size(), 2u);
  // Per root: one read leaf + one subtransaction with one write leaf.
  EXPECT_EQ(cs->Leaves().size(), 4u);
  EXPECT_TRUE(cs->Validate().ok()) << cs->Validate().ToString();

  // The two roots' reads conflict with nothing (read/read), but the two
  // subtransactions conflict via the service matrix and the writes via
  // the item, both ordered by seq: root0's side first.
  auto ig = BuildInvocationGraph(*cs);
  ASSERT_TRUE(ig.ok());
  const Schedule& front = cs->schedule(ScheduleId(0));
  const Schedule& ledger = cs->schedule(ScheduleId(1));
  EXPECT_EQ(front.conflicts.PairCount(), 1u);   // the two invocations.
  EXPECT_EQ(ledger.conflicts.PairCount(), 1u);  // the two writes.
  // Conflict order (1 pair) + the two per-root intra chains (strong, so
  // also weak) = 3 weak output pairs at the front office.
  EXPECT_EQ(front.weak_output.PairCount(), 3u);
  EXPECT_EQ(ledger.weak_output.PairCount(), 1u);
  // Def 4.7: the front's conflict order arrived as the ledger's input.
  EXPECT_EQ(ledger.weak_input.PairCount(), 1u);
}

TEST(HistoryRecorderTest, AbortedAttemptsAreInvisible) {
  RuntimeSystem network = MakeNetwork();
  HistoryRecorder recorder(network);
  uint64_t seq = 0;

  // Root 0: first attempt aborted, second committed.
  auto attempt1 = recorder.BeginRoot(0, 0, 0);
  recorder.RecordLocalOp(attempt1, OpType::kRead, 0, ++seq);
  recorder.AbortRoot(0);
  auto attempt2 = recorder.BeginRoot(0, 0, 0);
  recorder.RecordLocalOp(attempt2, OpType::kRead, 1, ++seq);
  recorder.CommitNode(attempt2, ++seq);
  recorder.CommitRoot(0);
  // Root 1: never commits.
  auto never = recorder.BeginRoot(1, 0, 0);
  recorder.RecordLocalOp(never, OpType::kWrite, 0, ++seq);
  recorder.AbortRoot(1);

  auto cs = recorder.BuildSystem();
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->Roots().size(), 1u);
  ASSERT_EQ(cs->Leaves().size(), 1u);
  // The committed leaf is the second attempt's (item 1).
  EXPECT_NE(cs->node(cs->Leaves()[0]).name.find("i1"), std::string::npos);
}

TEST(HistoryRecorderTest, IntraChainsAreStrong) {
  RuntimeSystem network = MakeNetwork();
  HistoryRecorder recorder(network);
  uint64_t seq = 0;
  auto root = recorder.BeginRoot(0, 0, 0);
  recorder.RecordLocalOp(root, OpType::kRead, 0, ++seq);
  auto sub = recorder.BeginSub(root, 1, 0);
  recorder.CommitNode(sub, ++seq);
  recorder.CommitNode(root, ++seq);
  recorder.CommitRoot(0);
  auto cs = recorder.BuildSystem();
  ASSERT_TRUE(cs.ok());
  NodeId r = cs->Roots()[0];
  const Node& root_node = cs->node(r);
  ASSERT_EQ(root_node.children.size(), 2u);
  EXPECT_TRUE(cs->strong_intra().Contains(root_node.children[0],
                                         root_node.children[1]));
}

TEST(HistoryRecorderTest, EmptyHistoryBuildsEmptySystem) {
  RuntimeSystem network = MakeNetwork();
  HistoryRecorder recorder(network);
  auto cs = recorder.BuildSystem();
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->ScheduleCount(), 2u);  // schedules exist, no transactions.
  EXPECT_TRUE(cs->Roots().empty());
  EXPECT_TRUE(cs->Validate().ok());
}

}  // namespace
}  // namespace comptx::runtime
