#include "graph/digraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace comptx::graph {
namespace {

TEST(DigraphTest, AddNodesAndEdges) {
  Digraph g(3);
  EXPECT_EQ(g.NodeCount(), 3u);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(0, 1));  // deduplicated
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.EdgeCount(), 1u);
}

TEST(DigraphTest, AddNodeGrows) {
  Digraph g;
  NodeIndex a = g.AddNode();
  NodeIndex b = g.AddNode();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  g.AddEdge(a, b);
  EXPECT_EQ(g.OutNeighbors(a).size(), 1u);
  const Digraph r = g.Reversed();
  ASSERT_EQ(r.OutNeighbors(b).size(), 1u);
  EXPECT_EQ(r.OutNeighbors(b)[0], a);
  EXPECT_TRUE(r.OutNeighbors(a).empty());
}

// Witness cycles follow out-neighbour order, so rows keep insertion order
// with the first occurrence winning, also while rows are interleaved,
// outgrow their room and pass the length where deduplication switches
// from a scan to a bitset.
TEST(DigraphTest, OutNeighborsKeepInsertionOrderAcrossRowGrowth) {
  constexpr NodeIndex kNodes = 64;
  Digraph g(kNodes);
  std::vector<std::vector<NodeIndex>> expected(3);
  for (NodeIndex i = 0; i < kNodes; ++i) {
    for (NodeIndex from = 0; from < 3; ++from) {
      const NodeIndex to = (i * 7 + from * 13) % kNodes;
      const bool is_new = std::find(expected[from].begin(),
                                    expected[from].end(),
                                    to) == expected[from].end();
      EXPECT_EQ(g.AddEdge(from, to), is_new);
      if (is_new) expected[from].push_back(to);
      // Re-adding an earlier target never moves it.
      EXPECT_FALSE(g.AddEdge(from, expected[from].front()));
    }
  }
  for (NodeIndex from = 0; from < 3; ++from) {
    const auto row = g.OutNeighbors(from);
    EXPECT_EQ(std::vector<NodeIndex>(row.begin(), row.end()),
              expected[from]);
    for (NodeIndex to = 0; to < kNodes; ++to) {
      const bool listed = std::find(expected[from].begin(),
                                    expected[from].end(),
                                    to) != expected[from].end();
      EXPECT_EQ(g.HasEdge(from, to), listed) << from << " -> " << to;
    }
  }
  EXPECT_EQ(g.EdgeCount(), 3 * size_t{kNodes});
}

TEST(DigraphTest, SelfLoops) {
  Digraph g(2);
  EXPECT_FALSE(g.HasSelfLoop());
  g.AddEdge(1, 1);
  EXPECT_TRUE(g.HasSelfLoop());
}

TEST(DigraphTest, Reversed) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  Digraph r = g.Reversed();
  EXPECT_TRUE(r.HasEdge(1, 0));
  EXPECT_TRUE(r.HasEdge(2, 1));
  EXPECT_FALSE(r.HasEdge(0, 1));
  EXPECT_EQ(r.EdgeCount(), 2u);
}

TEST(DigraphTest, UnionWith) {
  Digraph a(3);
  a.AddEdge(0, 1);
  Digraph b(3);
  b.AddEdge(1, 2);
  b.AddEdge(0, 1);
  a.UnionWith(b);
  EXPECT_EQ(a.EdgeCount(), 2u);
  EXPECT_TRUE(a.HasEdge(1, 2));
}

}  // namespace
}  // namespace comptx::graph
