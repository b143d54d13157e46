#include "core/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/indexing.h"
#include "util/rng.h"

namespace comptx {
namespace {

NodeId N(uint32_t i) { return NodeId(i); }

TEST(RelationTest, AddAndContains) {
  Relation r;
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.Add(N(1), N(2)));
  EXPECT_FALSE(r.Add(N(1), N(2)));  // duplicate
  EXPECT_TRUE(r.Contains(N(1), N(2)));
  EXPECT_FALSE(r.Contains(N(2), N(1)));
  EXPECT_EQ(r.PairCount(), 1u);
}

TEST(RelationTest, SuccessorsSorted) {
  Relation r;
  r.Add(N(1), N(5));
  r.Add(N(1), N(3));
  r.Add(N(1), N(4));
  std::vector<NodeId> succ = r.Successors(N(1));
  ASSERT_EQ(succ.size(), 3u);
  EXPECT_EQ(succ[0], N(3));
  EXPECT_EQ(succ[1], N(4));
  EXPECT_EQ(succ[2], N(5));
  EXPECT_TRUE(r.Successors(N(9)).empty());
}

TEST(RelationTest, ForEachDeterministicOrder) {
  Relation r;
  r.Add(N(2), N(1));
  r.Add(N(1), N(2));
  r.Add(N(1), N(0));
  std::vector<std::pair<NodeId, NodeId>> pairs = r.Pairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], std::make_pair(N(1), N(0)));
  EXPECT_EQ(pairs[1], std::make_pair(N(1), N(2)));
  EXPECT_EQ(pairs[2], std::make_pair(N(2), N(1)));
}

TEST(RelationTest, UnionAndContainment) {
  Relation a;
  a.Add(N(1), N(2));
  Relation b;
  b.Add(N(2), N(3));
  b.Add(N(1), N(2));
  EXPECT_FALSE(a.ContainsAllOf(b));
  EXPECT_TRUE(b.ContainsAllOf(a));
  a.UnionWith(b);
  EXPECT_TRUE(a.ContainsAllOf(b));
  EXPECT_EQ(a.PairCount(), 2u);
}

TEST(RelationTest, RestrictedTo) {
  Relation r;
  r.Add(N(1), N(2));
  r.Add(N(2), N(3));
  Relation restricted =
      r.RestrictedTo([](NodeId id) { return id.index() <= 2; });
  EXPECT_TRUE(restricted.Contains(N(1), N(2)));
  EXPECT_FALSE(restricted.Contains(N(2), N(3)));
}

TEST(RelationTest, EqualityIgnoresInsertionOrder) {
  Relation a;
  a.Add(N(1), N(2));
  a.Add(N(3), N(4));
  Relation b;
  b.Add(N(3), N(4));
  b.Add(N(1), N(2));
  EXPECT_TRUE(a == b);
}

TEST(SymmetricPairSetTest, SymmetricMembership) {
  SymmetricPairSet s;
  EXPECT_TRUE(s.Add(N(1), N(2)));
  EXPECT_FALSE(s.Add(N(2), N(1)));  // same unordered pair
  EXPECT_TRUE(s.Contains(N(1), N(2)));
  EXPECT_TRUE(s.Contains(N(2), N(1)));
  EXPECT_EQ(s.PairCount(), 1u);
}

TEST(SymmetricPairSetTest, PeersAndForEach) {
  SymmetricPairSet s;
  s.Add(N(1), N(2));
  s.Add(N(1), N(3));
  std::vector<NodeId> peers = s.PeersOf(N(1));
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0], N(2));
  EXPECT_EQ(peers[1], N(3));
  int count = 0;
  s.ForEach([&](NodeId a, NodeId b) {
    EXPECT_LT(a.index(), b.index());
    ++count;
  });
  EXPECT_EQ(count, 2);
}

// ---- Row slot reuse -------------------------------------------------------
//
// A dropped row's slot is recycled, with its element and bitset storage,
// by the next new source.  These tests drop rows at the front, middle and
// back of the source order, re-add the same and new sources, and check
// that nothing of a slot's previous owner shows through.

/// Sources 10..50 step 10, each with targets source+1..source+3.
Relation FiveRows() {
  Relation r;
  for (uint32_t s = 10; s <= 50; s += 10) {
    for (uint32_t t = s + 1; t <= s + 3; ++t) r.Add(N(s), N(t));
  }
  return r;
}

Relation Build(const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  Relation r;
  for (const auto& [a, b] : pairs) r.Add(N(a), N(b));
  return r;
}

TEST(RelationSlotReuseTest, DropFrontMiddleBackThenReAdd) {
  Relation r = FiveRows();
  EXPECT_EQ(r.RemoveSource(N(10)), 3u);  // front
  for (uint32_t t = 31; t <= 33; ++t) {  // middle, pair by pair
    EXPECT_TRUE(r.Remove(N(30), N(t)));
  }
  EXPECT_EQ(r.RemoveSource(N(50)), 3u);  // back
  EXPECT_EQ(r.SourceCount(), 2u);
  EXPECT_EQ(r.PairCount(), 6u);

  // The same middle source with other targets, plus new sources before,
  // between and after the survivors: three recycled slots, one new.
  r.Add(N(30), N(7));
  r.Add(N(5), N(6));
  r.Add(N(35), N(36));
  r.Add(N(60), N(61));
  r.Add(N(60), N(62));

  const std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {5, 6},   {20, 21}, {20, 22}, {20, 23}, {30, 7},
      {35, 36}, {40, 41}, {40, 42}, {40, 43}, {60, 61}, {60, 62}};
  std::vector<std::pair<uint32_t, uint32_t>> seen;
  r.ForEach(
      [&](NodeId a, NodeId b) { seen.emplace_back(a.index(), b.index()); });
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(r.PairCount(), expected.size());
  EXPECT_TRUE(r == Build(expected));
  EXPECT_TRUE(Build(expected) == r);
  for (size_t i = 0; i < r.SourceCount(); ++i) {
    const std::span<const uint32_t> succ = r.SuccessorsAt(i);
    EXPECT_TRUE(std::is_sorted(succ.begin(), succ.end()));
  }
  // No target of a dropped row survives in any recycled slot.
  for (uint32_t s : {5u, 10u, 30u, 35u, 50u, 60u}) {
    for (uint32_t t : {11u, 12u, 13u, 31u, 32u, 33u, 51u, 52u, 53u}) {
      EXPECT_FALSE(r.Contains(N(s), N(t))) << s << " -> " << t;
    }
  }
  EXPECT_TRUE(r.SuccessorIds(N(10)).empty());
  EXPECT_TRUE(r.SuccessorIds(N(50)).empty());
}

/// Random adds, removes and source drops over a small id range, checked
/// after every step against a set model and a freshly built relation.
TEST(RelationSlotReuseTest, RandomChurnMatchesFreshRelation) {
  Rng rng(11);
  Relation r;
  std::set<std::pair<uint32_t, uint32_t>> model;
  for (int step = 0; step < 3000; ++step) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(40));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(200));
    const uint64_t op = rng.UniformInt(10);
    if (op < 6) {
      EXPECT_EQ(r.Add(N(a), N(b)), model.emplace(a, b).second);
    } else if (op < 8) {
      EXPECT_EQ(r.Remove(N(a), N(b)), model.erase({a, b}) == 1);
    } else {
      size_t gone = 0;
      for (auto it = model.lower_bound({a, 0});
           it != model.end() && it->first == a;) {
        it = model.erase(it);
        ++gone;
      }
      EXPECT_EQ(r.RemoveSource(N(a)), gone);
    }
    const std::vector<std::pair<uint32_t, uint32_t>> pairs(model.begin(),
                                                           model.end());
    ASSERT_EQ(r.PairCount(), pairs.size()) << "step " << step;
    ASSERT_TRUE(r == Build(pairs)) << "step " << step;
    for (uint32_t x = 0; x < 40; x += 7) {
      for (uint32_t y = 0; y < 200; y += 3) {
        ASSERT_EQ(r.Contains(N(x), N(y)), model.count({x, y}) == 1)
            << "step " << step << ": " << x << " -> " << y;
      }
    }
  }
}

TEST(SymmetricPairSetSlotReuseTest, RemoveFrontMiddleBackThenReAdd) {
  SymmetricPairSet s;
  // A star around 20 plus a chain 30-40-50.
  for (uint32_t peer : {10u, 30u, 50u}) s.Add(N(20), N(peer));
  s.Add(N(30), N(40));
  s.Add(N(40), N(50));
  EXPECT_EQ(s.RemoveNode(N(10)), 1u);  // front
  EXPECT_EQ(s.RemoveNode(N(40)), 2u);  // middle
  EXPECT_EQ(s.RemoveNode(N(50)), 1u);  // back (40-50 went with 40)
  EXPECT_EQ(s.PairCount(), 1u);        // {20, 30} remains
  // Same and new nodes take the freed slots.
  s.Add(N(40), N(10));
  s.Add(N(50), N(60));
  s.Add(N(5), N(30));

  SymmetricPairSet fresh;
  for (auto [a, b] : {std::pair(20u, 30u), std::pair(10u, 40u),
                      std::pair(50u, 60u), std::pair(5u, 30u)}) {
    fresh.Add(N(a), N(b));
  }
  EXPECT_EQ(s.PairCount(), 4u);
  EXPECT_TRUE(s == fresh);
  std::vector<std::pair<uint32_t, uint32_t>> seen, want;
  s.ForEach(
      [&](NodeId a, NodeId b) { seen.emplace_back(a.index(), b.index()); });
  fresh.ForEach(
      [&](NodeId a, NodeId b) { want.emplace_back(a.index(), b.index()); });
  EXPECT_EQ(seen, want);
  // Old peers do not show through the recycled rows.
  EXPECT_FALSE(s.Contains(N(40), N(30)));
  EXPECT_FALSE(s.Contains(N(40), N(50)));
  EXPECT_FALSE(s.Contains(N(50), N(20)));
  EXPECT_FALSE(s.Contains(N(10), N(20)));
  EXPECT_FALSE(s.Contains(N(20), N(10)));
  EXPECT_TRUE(s.Contains(N(10), N(40)));
  EXPECT_TRUE(s.Contains(N(60), N(50)));
  EXPECT_EQ(s.PeersOf(N(30)), (std::vector<NodeId>{N(5), N(20)}));
}

TEST(ClosureWithinTest, TransitiveClosureOfChain) {
  Relation r;
  r.Add(N(1), N(2));
  r.Add(N(2), N(3));
  Relation closed = ClosureWithin(r, {N(1), N(2), N(3)});
  EXPECT_TRUE(closed.Contains(N(1), N(3)));
  EXPECT_FALSE(closed.Contains(N(3), N(1)));
  EXPECT_EQ(closed.PairCount(), 3u);
}

TEST(ClosureWithinTest, DropsPairsOutsideDomain) {
  Relation r;
  r.Add(N(1), N(2));
  r.Add(N(2), N(3));
  Relation closed = ClosureWithin(r, {N(1), N(2)});
  EXPECT_TRUE(closed.Contains(N(1), N(2)));
  EXPECT_EQ(closed.PairCount(), 1u);
}

TEST(NodeIndexMapTest, RoundTrips) {
  NodeIndexMap map({N(7), N(3), N(9)});
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.LocalOf(N(3)), 1u);
  EXPECT_EQ(map.GlobalOf(2), N(9));
  EXPECT_TRUE(map.Has(N(7)));
  EXPECT_FALSE(map.Has(N(8)));
  EXPECT_FALSE(map.TryLocalOf(N(8)).has_value());
}

}  // namespace
}  // namespace comptx
