// Tests for online::IncrementalCycleGraph (Pearce-Kelly dynamic
// acyclicity): cross-checks against the batch cycle finder after every
// insertion, and exercises the witness contract, node removal and the
// maintained topological order.  Also checks online::LiveRelation, the
// adjacency under it, against the static closure.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "core/indexing.h"
#include "graph/cycle_finder.h"
#include "graph/digraph.h"
#include "online/incremental_cycles.h"
#include "util/rng.h"

namespace comptx::online {
namespace {

TEST(IncrementalCycleGraph, EmptyGraphIsAcyclic) {
  IncrementalCycleGraph g;
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.NodeCount(), 0u);
  EXPECT_EQ(g.EdgeCount(), 0u);
}

TEST(IncrementalCycleGraph, ChainStaysAcyclic) {
  IncrementalCycleGraph g;
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(g.AddEdge(NodeId(i), NodeId(i + 1)));
  }
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.EdgeCount(), 10u);
}

TEST(IncrementalCycleGraph, DuplicateEdgeIsIdempotent) {
  IncrementalCycleGraph g;
  EXPECT_TRUE(g.AddEdge(NodeId(0), NodeId(1)));
  EXPECT_TRUE(g.AddEdge(NodeId(0), NodeId(1)));
  EXPECT_EQ(g.EdgeCount(), 1u);
}

TEST(IncrementalCycleGraph, SelfLoopIsOneNodeCycle) {
  IncrementalCycleGraph g;
  EXPECT_FALSE(g.AddEdge(NodeId(3), NodeId(3)));
  EXPECT_TRUE(g.has_cycle());
  ASSERT_EQ(g.cycle_witness().size(), 1u);
  EXPECT_EQ(g.cycle_witness()[0], NodeId(3));
}

TEST(IncrementalCycleGraph, TwoCycleDetected) {
  IncrementalCycleGraph g;
  EXPECT_TRUE(g.AddEdge(NodeId(0), NodeId(1)));
  EXPECT_FALSE(g.AddEdge(NodeId(1), NodeId(0)));
  EXPECT_TRUE(g.has_cycle());
}

TEST(IncrementalCycleGraph, BackEdgeClosingLongPathDetected) {
  IncrementalCycleGraph g;
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(g.AddEdge(NodeId(i), NodeId(i + 1)));
  }
  EXPECT_FALSE(g.AddEdge(NodeId(20), NodeId(0)));
  EXPECT_TRUE(g.has_cycle());
}

/// The witness must be a real cycle of the inserted edges: every
/// consecutive pair an edge, and the last node closing back to the first.
TEST(IncrementalCycleGraph, WitnessIsARealCycle) {
  IncrementalCycleGraph g;
  // Diamond with a back edge: 0->1->3, 0->2->3, then 3->0 closes.
  ASSERT_TRUE(g.AddEdge(NodeId(0), NodeId(1)));
  ASSERT_TRUE(g.AddEdge(NodeId(1), NodeId(3)));
  ASSERT_TRUE(g.AddEdge(NodeId(0), NodeId(2)));
  ASSERT_TRUE(g.AddEdge(NodeId(2), NodeId(3)));
  ASSERT_FALSE(g.AddEdge(NodeId(3), NodeId(0)));
  const std::vector<NodeId>& w = g.cycle_witness();
  ASSERT_GE(w.size(), 2u);
  for (size_t i = 0; i + 1 < w.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(w[i], w[i + 1]))
        << "witness edge " << w[i] << " -> " << w[i + 1] << " missing";
  }
  EXPECT_TRUE(g.HasEdge(w.back(), w.front()));
}

TEST(IncrementalCycleGraph, FailureIsSticky) {
  IncrementalCycleGraph g;
  ASSERT_TRUE(g.AddEdge(NodeId(0), NodeId(1)));
  ASSERT_FALSE(g.AddEdge(NodeId(1), NodeId(0)));
  // Later edges are still recorded (adjacency stays complete for pruning)
  // but the verdict stays failed.
  EXPECT_FALSE(g.AddEdge(NodeId(5), NodeId(6)));
  EXPECT_TRUE(g.has_cycle());
  EXPECT_TRUE(g.HasEdge(NodeId(5), NodeId(6)));
}

/// On an acyclic graph the maintained order keys are a topological order:
/// every edge goes from a smaller key to a larger one.
TEST(IncrementalCycleGraph, OrderKeysAreTopological) {
  Rng rng(7);
  IncrementalCycleGraph g;
  std::vector<std::pair<NodeId, NodeId>> edges;
  // Random DAG edges i -> j with i < j, inserted in shuffled order so the
  // structure reorders constantly.
  for (uint32_t i = 0; i < 30; ++i) {
    for (uint32_t j = i + 1; j < 30; ++j) {
      if (rng.Bernoulli(0.12)) edges.emplace_back(NodeId(i), NodeId(j));
    }
  }
  rng.Shuffle(edges);
  for (const auto& [a, b] : edges) ASSERT_TRUE(g.AddEdge(a, b));
  EXPECT_FALSE(g.has_cycle());
  for (const auto& [a, b] : edges) {
    EXPECT_LT(g.OrderKey(a), g.OrderKey(b))
        << a << " -> " << b << " violates the maintained order";
  }
}

TEST(IncrementalCycleGraph, InDegreeAndRemoveNode) {
  IncrementalCycleGraph g;
  ASSERT_TRUE(g.AddEdge(NodeId(0), NodeId(2)));
  ASSERT_TRUE(g.AddEdge(NodeId(1), NodeId(2)));
  ASSERT_TRUE(g.AddEdge(NodeId(2), NodeId(3)));
  const auto nowhere = [](NodeId) { return false; };
  EXPECT_TRUE(g.HasEdge(NodeId(0), NodeId(2)));
  EXPECT_TRUE(g.HasEdge(NodeId(1), NodeId(2)));
  EXPECT_TRUE(g.HasInEdgeFromOutside(NodeId(2), nowhere));
  // Both in-edges of 2 come from {0, 1}, so none is from outside it.
  EXPECT_FALSE(g.HasInEdgeFromOutside(
      NodeId(2), [](NodeId x) { return x.index() <= 1; }));
  // The in-edge 1 -> 2 crosses the boundary of {0}.
  EXPECT_TRUE(g.HasInEdgeFromOutside(
      NodeId(2), [](NodeId x) { return x.index() == 0; }));
  EXPECT_FALSE(g.HasInEdgeFromOutside(NodeId(0), nowhere));
  EXPECT_FALSE(g.HasInEdgeFromOutside(NodeId(99), nowhere));  // unknown node
  g.RemoveNode(NodeId(2));
  EXPECT_FALSE(g.Contains(NodeId(2)));
  EXPECT_FALSE(g.HasEdge(NodeId(0), NodeId(2)));
  EXPECT_FALSE(g.HasEdge(NodeId(2), NodeId(3)));
  EXPECT_FALSE(g.HasInEdgeFromOutside(NodeId(3), nowhere));
  EXPECT_EQ(g.EdgeCount(), 0u);
  // The survivors can still take edges.
  EXPECT_TRUE(g.AddEdge(NodeId(0), NodeId(3)));
  EXPECT_FALSE(g.has_cycle());
}

/// Removed vertices free their slots and DropBefore releases the id
/// window below the oldest survivor; vertices created afterwards reuse
/// the slots.  Order keys, cycle detection and the witness must not see
/// anything of the slots' previous owners.
TEST(IncrementalCycleGraph, RemoveAndDropBeforeThenNewEdges) {
  IncrementalCycleGraph g;
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(g.AddEdge(NodeId(i), NodeId(i + 1)));
  }
  // Drop the oldest half (sources first, as pruning does).
  for (uint32_t i = 0; i < 5; ++i) g.RemoveNode(NodeId(i));
  g.DropBefore(5);
  EXPECT_EQ(g.NodeCount(), 6u);
  EXPECT_EQ(g.EdgeCount(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(g.Contains(NodeId(i)));
    EXPECT_EQ(g.OrderKey(NodeId(i)), g.OrderKey(NodeId(1000)));  // unknown
  }
  // New vertices 20..24 recycle the freed slots.  Inserted backwards, each
  // edge inverts the current order and forces a reorder.
  for (uint32_t i = 24; i > 20; --i) {
    ASSERT_TRUE(g.AddEdge(NodeId(i - 1), NodeId(i)));
  }
  ASSERT_TRUE(g.AddEdge(NodeId(10), NodeId(20)));
  EXPECT_EQ(g.NodeCount(), 11u);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (uint32_t i : {5u, 6u, 7u, 8u, 9u, 20u, 21u, 22u, 23u}) {
    edges.emplace_back(NodeId(i), NodeId(i + 1));
  }
  edges.emplace_back(NodeId(10), NodeId(20));
  for (const auto& [a, b] : edges) {
    EXPECT_TRUE(g.HasEdge(a, b));
    EXPECT_LT(g.OrderKey(a), g.OrderKey(b)) << a << " -> " << b;
  }
  EXPECT_FALSE(g.HasEdge(NodeId(4), NodeId(5)));
  EXPECT_FALSE(g.HasInEdgeFromOutside(NodeId(5), [](NodeId) { return false; }));

  // A removed vertex's old edge 3 -> 4 must not resurface: 4 -> 3 on fresh
  // vertices 3 and 4 below the window is not a cycle.
  EXPECT_TRUE(g.AddEdge(NodeId(4), NodeId(3)));
  EXPECT_FALSE(g.has_cycle());
  // A back edge from the new tail closes the long path; the witness is a
  // real cycle through the recycled vertices.
  EXPECT_FALSE(g.AddEdge(NodeId(24), NodeId(7)));
  ASSERT_TRUE(g.has_cycle());
  const std::vector<NodeId>& w = g.cycle_witness();
  EXPECT_EQ(w, (std::vector<NodeId>{NodeId(7), NodeId(8), NodeId(9),
                                    NodeId(10), NodeId(20), NodeId(21),
                                    NodeId(22), NodeId(23), NodeId(24)}));
  for (size_t i = 0; i + 1 < w.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(w[i], w[i + 1]));
  }
  EXPECT_TRUE(g.HasEdge(w.back(), w.front()));
}

/// Randomized: a sliding window of vertices, the oldest removed and
/// dropped as the window advances, checked after every insertion against
/// the batch cycle finder on the surviving edges.
TEST(IncrementalCycleGraph, SlidingWindowAgainstBatchCycleFinder) {
  constexpr uint32_t kWindow = 12;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(500 + seed);
    IncrementalCycleGraph g;
    std::vector<std::pair<uint32_t, uint32_t>> live_edges;
    for (uint32_t newest = 1; newest < 120; ++newest) {
      const uint32_t oldest = newest < kWindow ? 0 : newest - kWindow;
      if (oldest > 0) {
        g.RemoveNode(NodeId(oldest - 1));
        g.DropBefore(oldest);
        std::erase_if(live_edges, [&](const auto& e) {
          return e.first < oldest || e.second < oldest;
        });
      }
      // Mostly forward edges into the newest vertex, rarely a backward one.
      const uint32_t from =
          oldest + static_cast<uint32_t>(rng.UniformInt(newest - oldest));
      const bool backward = rng.Bernoulli(0.03);
      const uint32_t a = backward ? newest : from;
      const uint32_t b = backward ? from : newest;
      const bool ok = g.AddEdge(NodeId(a), NodeId(b));
      live_edges.emplace_back(a, b);

      graph::Digraph batch(newest - oldest + 1);
      for (const auto& [x, y] : live_edges) {
        batch.AddEdge(x - oldest, y - oldest);
      }
      const bool acyclic = graph::IsAcyclic(batch);
      ASSERT_EQ(ok, acyclic) << "seed " << seed << " newest " << newest;
      if (!acyclic) {
        const std::vector<NodeId>& w = g.cycle_witness();
        ASSERT_FALSE(w.empty());
        for (size_t i = 0; i < w.size(); ++i) {
          ASSERT_TRUE(g.HasEdge(w[i], w[(i + 1) % w.size()]));
        }
        break;  // failure is sticky; the next seed
      }
      for (const auto& [x, y] : live_edges) {
        ASSERT_LT(g.OrderKey(NodeId(x)), g.OrderKey(NodeId(y)));
      }
    }
  }
}

/// Randomized cross-check: after every single insertion, the incremental
/// verdict must equal batch IsAcyclic on the same edge set.  Once a cycle
/// appears the incremental graph reports failure forever (sticky), which
/// the batch check confirms stays cyclic since edges are never removed.
TEST(IncrementalCycleGraph, RandomizedAgainstBatchCycleFinder) {
  constexpr uint32_t kNodes = 24;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    Rng rng(1000 + static_cast<uint64_t>(round));
    IncrementalCycleGraph inc;
    graph::Digraph batch(kNodes);
    bool failed = false;
    const int edges = static_cast<int>(rng.UniformRange(5, 60));
    for (int e = 0; e < edges; ++e) {
      NodeId a(static_cast<uint32_t>(rng.UniformInt(kNodes)));
      NodeId b(static_cast<uint32_t>(rng.UniformInt(kNodes)));
      bool ok = inc.AddEdge(a, b);
      batch.AddEdge(a.index(), b.index());
      bool batch_acyclic = graph::IsAcyclic(batch) && !batch.HasSelfLoop();
      failed = failed || !batch_acyclic;
      ASSERT_EQ(ok, !failed)
          << "round " << round << " edge " << e << ": " << a << " -> " << b;
      ASSERT_EQ(inc.has_cycle(), failed);
    }
    // When failed, the recorded witness must be a genuine cycle.
    if (failed && !inc.cycle_witness().empty()) {
      const std::vector<NodeId>& w = inc.cycle_witness();
      for (size_t i = 0; i + 1 < w.size(); ++i) {
        ASSERT_TRUE(inc.HasEdge(w[i], w[i + 1]));
      }
      ASSERT_TRUE(inc.HasEdge(w.back(), w.front()));
    }
  }
}

/// Randomized DAG-only stress: only forward edges (never creating cycles),
/// verifying the incremental structure never reports a spurious cycle even
/// under heavy reordering, and keeps keys topological throughout.
TEST(IncrementalCycleGraph, RandomizedDagNeverFails) {
  for (int round = 0; round < 50; ++round) {
    Rng rng(77000 + static_cast<uint64_t>(round));
    constexpr uint32_t kNodes = 40;
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t i = 0; i < kNodes; ++i) {
      for (uint32_t j = i + 1; j < kNodes; ++j) {
        if (rng.Bernoulli(0.08)) edges.emplace_back(i, j);
      }
    }
    rng.Shuffle(edges);
    IncrementalCycleGraph g;
    for (const auto& [a, b] : edges) {
      ASSERT_TRUE(g.AddEdge(NodeId(a), NodeId(b)));
      ASSERT_FALSE(g.has_cycle());
    }
    for (const auto& [a, b] : edges) {
      ASSERT_LT(g.OrderKey(NodeId(a)), g.OrderKey(NodeId(b)));
    }
  }
}

using PairList = std::vector<std::pair<NodeId, NodeId>>;

PairList PairsOf(const LiveRelation& rel) {
  PairList out;
  rel.ForEach([&](NodeId a, NodeId b) { out.emplace_back(a, b); });
  return out;
}

/// AddClosing keeps the relation equal to the static ClosureWithin of the
/// generators inserted so far (cycles included), reporting exactly the
/// pairs each insertion added; RemoveNode keeps the two directions each
/// other's converse.
TEST(LiveRelation, AddClosingMatchesClosureWithin) {
  constexpr uint32_t kNodes = 16;
  std::vector<NodeId> domain;
  for (uint32_t v = 0; v < kNodes; ++v) domain.push_back(NodeId(v));
  auto random_node = [](Rng& rng) {
    return NodeId(static_cast<uint32_t>(rng.UniformInt(kNodes)));
  };
  for (int round = 0; round < 100; ++round) {
    Rng rng(5150 + static_cast<uint64_t>(round));
    LiveRelation live;
    ClosingScratch scratch;
    Relation generators;
    const int adds = static_cast<int>(rng.UniformRange(1, 40));
    for (int e = 0; e < adds; ++e) {
      const NodeId a = random_node(rng);
      const NodeId b = random_node(rng);
      const PairList before = PairsOf(live);
      PairList new_pairs;
      live.AddClosing(a, b, scratch, new_pairs);
      generators.Add(a, b);
      const PairList closed = ClosureWithin(generators, domain).Pairs();
      ASSERT_EQ(PairsOf(live), closed) << "round " << round << " edge " << e;
      ASSERT_EQ(live.PairCount(), closed.size());
      PairList added;
      std::set_difference(closed.begin(), closed.end(), before.begin(),
                          before.end(), std::back_inserter(added));
      std::sort(new_pairs.begin(), new_pairs.end());
      ASSERT_EQ(new_pairs, added) << "round " << round << " edge " << e;
    }
    for (int k = 0; k < 6; ++k) {
      const NodeId victim = random_node(rng);
      live.RemoveNode(victim);
      EXPECT_TRUE(live.Successors(victim).empty());
      EXPECT_TRUE(live.Predecessors(victim).empty());
      PairList forward;
      PairList converse;
      for (uint32_t v = 0; v < kNodes; ++v) {
        for (uint32_t w : live.Successors(NodeId(v))) {
          forward.emplace_back(NodeId(v), NodeId(w));
        }
        for (uint32_t u : live.Predecessors(NodeId(v))) {
          converse.emplace_back(NodeId(u), NodeId(v));
        }
      }
      std::sort(converse.begin(), converse.end());
      ASSERT_EQ(forward, converse) << "round " << round << " removal " << k;
      ASSERT_EQ(forward, PairsOf(live));
      ASSERT_EQ(live.PairCount(), forward.size());
    }
  }
}

}  // namespace
}  // namespace comptx::online
