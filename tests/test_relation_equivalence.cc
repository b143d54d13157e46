// Randomized equivalence suite for the dense relation engine: every
// operation of Relation / SymmetricPairSet is checked against a
// straightforward map<uint32_t, set<uint32_t>> reference model, including
// the iteration-order contract (sources ascending, targets ascending) that
// witness reproducibility depends on.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/relation.h"
#include "util/rng.h"

namespace comptx {
namespace {

/// The reference model: exactly the layout the engine replaced.
class MapRelation {
 public:
  bool Add(uint32_t a, uint32_t b) { return rows_[a].insert(b).second; }

  /// Erases (a, b), dropping the row once it is empty.
  bool Remove(uint32_t a, uint32_t b) {
    auto it = rows_.find(a);
    if (it == rows_.end() || it->second.erase(b) == 0) return false;
    if (it->second.empty()) rows_.erase(it);
    return true;
  }

  size_t RemoveSource(uint32_t a) {
    auto it = rows_.find(a);
    if (it == rows_.end()) return 0;
    const size_t n = it->second.size();
    rows_.erase(it);
    return n;
  }

  size_t SourceCount() const { return rows_.size(); }

  bool Contains(uint32_t a, uint32_t b) const {
    auto it = rows_.find(a);
    return it != rows_.end() && it->second.count(b) > 0;
  }

  size_t PairCount() const {
    size_t n = 0;
    for (const auto& [a, row] : rows_) n += row.size();
    return n;
  }

  std::vector<std::pair<uint32_t, uint32_t>> Pairs() const {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    for (const auto& [a, row] : rows_) {
      for (uint32_t b : row) out.emplace_back(a, b);
    }
    return out;
  }

  std::vector<uint32_t> Successors(uint32_t a) const {
    auto it = rows_.find(a);
    if (it == rows_.end()) return {};
    return {it->second.begin(), it->second.end()};
  }

 private:
  std::map<uint32_t, std::set<uint32_t>> rows_;
};

std::vector<std::pair<uint32_t, uint32_t>> RawPairs(const Relation& rel) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  rel.ForEach(
      [&](NodeId a, NodeId b) { out.emplace_back(a.index(), b.index()); });
  return out;
}

TEST(RelationEquivalence, RandomOpsMatchReferenceModel) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(0xD15EA5E + seed);
    Relation dense;
    MapRelation reference;
    const uint32_t id_space =
        static_cast<uint32_t>(rng.UniformRange(5, 2000));
    const int ops = 800;
    for (int i = 0; i < ops; ++i) {
      const uint32_t a = static_cast<uint32_t>(rng.UniformInt(id_space));
      const uint32_t b = static_cast<uint32_t>(rng.UniformInt(id_space));
      switch (rng.UniformInt(6)) {
        case 0:
        case 1:
        case 2: {
          const bool added_dense = dense.Add(NodeId(a), NodeId(b));
          const bool added_ref = reference.Add(a, b);
          ASSERT_EQ(added_dense, added_ref) << "seed " << seed << " op " << i;
          break;
        }
        case 3:
          // Removal picks an existing pair half the time so rows empty out.
          if (rng.Bernoulli(0.5) && dense.PairCount() > 0) {
            const auto pairs = reference.Pairs();
            const auto& pick = pairs[rng.UniformInt(pairs.size())];
            ASSERT_TRUE(dense.Remove(NodeId(pick.first), NodeId(pick.second)));
            ASSERT_TRUE(reference.Remove(pick.first, pick.second));
          } else {
            ASSERT_EQ(dense.Remove(NodeId(a), NodeId(b)),
                      reference.Remove(a, b))
                << "seed " << seed << " op " << i;
          }
          break;
        case 4:
          if (rng.Bernoulli(0.05)) {
            ASSERT_EQ(dense.RemoveSource(NodeId(a)), reference.RemoveSource(a))
                << "seed " << seed << " op " << i;
          }
          break;
        default:
          ASSERT_EQ(dense.Contains(NodeId(a), NodeId(b)),
                    reference.Contains(a, b))
              << "seed " << seed << " op " << i;
      }
    }
    ASSERT_EQ(dense.PairCount(), reference.PairCount()) << "seed " << seed;
    ASSERT_EQ(dense.SourceCount(), reference.SourceCount()) << "seed " << seed;
    // The full iteration order must equal the reference's map/set order.
    ASSERT_EQ(RawPairs(dense), reference.Pairs()) << "seed " << seed;
    // Removal leaves no trace: equal to a relation built from the pairs.
    Relation rebuilt;
    for (const auto& [a, b] : reference.Pairs()) {
      rebuilt.Add(NodeId(a), NodeId(b));
    }
    ASSERT_TRUE(dense == rebuilt) << "seed " << seed;
    // Row accessors agree with the reference per source.
    for (uint32_t a = 0; a < id_space; ++a) {
      const std::vector<uint32_t> expect = reference.Successors(a);
      const std::span<const uint32_t> ids = dense.SuccessorIds(NodeId(a));
      ASSERT_EQ(std::vector<uint32_t>(ids.begin(), ids.end()), expect);
      std::vector<uint32_t> via_foreach;
      dense.ForEachSuccessor(
          NodeId(a), [&](NodeId b) { via_foreach.push_back(b.index()); });
      ASSERT_EQ(via_foreach, expect);
      const std::vector<NodeId> copies = dense.Successors(NodeId(a));
      ASSERT_EQ(copies.size(), expect.size());
      for (size_t k = 0; k < copies.size(); ++k) {
        ASSERT_EQ(copies[k].index(), expect[k]);
      }
    }
    // Row sharding accessors cover exactly the pairs, in the same order.
    std::vector<std::pair<uint32_t, uint32_t>> via_rows;
    for (size_t i = 0; i < dense.SourceCount(); ++i) {
      for (uint32_t to : dense.SuccessorsAt(i)) {
        via_rows.emplace_back(dense.SourceAt(i).index(), to);
      }
    }
    ASSERT_EQ(via_rows, reference.Pairs()) << "seed " << seed;
  }
}

TEST(RelationEquivalence, AddAllMatchesPerPairAdds) {
  Rng rng(77);
  for (int round = 0; round < 30; ++round) {
    Relation bulk;
    Relation single;
    for (int row = 0; row < 10; ++row) {
      const uint32_t src = static_cast<uint32_t>(rng.UniformInt(50));
      std::vector<uint32_t> targets;
      for (int k = 0; k < 20; ++k) {
        targets.push_back(static_cast<uint32_t>(rng.UniformInt(300)));
      }
      bulk.AddAll(NodeId(src), targets);
      for (uint32_t t : targets) single.Add(NodeId(src), NodeId(t));
    }
    ASSERT_TRUE(bulk == single);
    ASSERT_EQ(bulk.Pairs(), single.Pairs());
  }
}

TEST(RelationEquivalence, UnionRestrictEqualityAgree) {
  Rng rng(123);
  for (int round = 0; round < 20; ++round) {
    Relation r1;
    Relation r2;
    MapRelation m1;
    MapRelation m2;
    for (int i = 0; i < 200; ++i) {
      const uint32_t a = static_cast<uint32_t>(rng.UniformInt(100));
      const uint32_t b = static_cast<uint32_t>(rng.UniformInt(100));
      if (rng.Bernoulli(0.5)) {
        r1.Add(NodeId(a), NodeId(b));
        m1.Add(a, b);
      } else {
        r2.Add(NodeId(a), NodeId(b));
        m2.Add(a, b);
      }
    }
    Relation merged = r1;
    merged.UnionWith(r2);
    MapRelation merged_ref = m1;
    for (const auto& [a, b] : m2.Pairs()) merged_ref.Add(a, b);
    ASSERT_EQ(RawPairs(merged), merged_ref.Pairs());
    ASSERT_TRUE(merged.ContainsAllOf(r1));
    ASSERT_TRUE(merged.ContainsAllOf(r2));
    ASSERT_EQ(r1.ContainsAllOf(merged), RawPairs(r1) == RawPairs(merged));

    const Relation even = merged.RestrictedTo(
        [](NodeId id) { return id.index() % 2 == 0; });
    std::vector<std::pair<uint32_t, uint32_t>> expect;
    for (const auto& [a, b] : merged_ref.Pairs()) {
      if (a % 2 == 0 && b % 2 == 0) expect.emplace_back(a, b);
    }
    ASSERT_EQ(RawPairs(even), expect);

    Relation copy = merged;
    ASSERT_TRUE(copy == merged);
    copy.Add(NodeId(3001), NodeId(7));
    ASSERT_FALSE(copy == merged);
  }
}

TEST(SymmetricPairSetEquivalence, RandomOpsMatchReferenceModel) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(0xBEEF + seed);
    SymmetricPairSet dense;
    MapRelation reference;  // stores both directions, like the old layout
    for (int i = 0; i < 500; ++i) {
      uint32_t a = static_cast<uint32_t>(rng.UniformInt(200));
      uint32_t b = static_cast<uint32_t>(rng.UniformInt(200));
      if (a == b) continue;
      if (rng.Bernoulli(0.6)) {
        const bool added = dense.Add(NodeId(a), NodeId(b));
        // The reference stores both directions, so (a, b) was present iff
        // the unordered pair was.
        const bool was_new = reference.Add(a, b);
        reference.Add(b, a);
        ASSERT_EQ(added, was_new) << "seed " << seed << " op " << i;
        ASSERT_TRUE(dense.Contains(NodeId(a), NodeId(b)));
        ASSERT_TRUE(dense.Contains(NodeId(b), NodeId(a)));
      } else {
        ASSERT_EQ(dense.Contains(NodeId(a), NodeId(b)),
                  reference.Contains(a, b))
            << "seed " << seed << " op " << i;
      }
    }
    // ForEach fires each unordered pair exactly once, a < b, sorted.
    std::vector<std::pair<uint32_t, uint32_t>> fired;
    dense.ForEach([&](NodeId a, NodeId b) {
      ASSERT_LT(a.index(), b.index());
      fired.emplace_back(a.index(), b.index());
    });
    std::vector<std::pair<uint32_t, uint32_t>> expect;
    for (const auto& [a, b] : reference.Pairs()) {
      if (a < b) expect.emplace_back(a, b);
    }
    ASSERT_EQ(fired, expect) << "seed " << seed;
    ASSERT_EQ(dense.PairCount(), expect.size());
    // PeerIds mirrors the reference rows.
    for (uint32_t a = 0; a < 200; ++a) {
      const std::span<const uint32_t> peers = dense.PeerIds(NodeId(a));
      ASSERT_EQ(std::vector<uint32_t>(peers.begin(), peers.end()),
                reference.Successors(a));
    }
  }
}

TEST(SymmetricPairSetEquivalence, UnionAndEquality) {
  SymmetricPairSet s1;
  s1.Add(NodeId(1), NodeId(5));
  s1.Add(NodeId(9), NodeId(2));
  SymmetricPairSet s2;
  s2.Add(NodeId(5), NodeId(1));  // same unordered pair, reversed
  s2.Add(NodeId(3), NodeId(4));
  SymmetricPairSet merged = s1;
  merged.UnionWith(s2);
  EXPECT_EQ(merged.PairCount(), 3u);
  EXPECT_TRUE(merged.Contains(NodeId(4), NodeId(3)));
  SymmetricPairSet expected;
  expected.Add(NodeId(2), NodeId(9));
  expected.Add(NodeId(1), NodeId(5));
  expected.Add(NodeId(4), NodeId(3));
  EXPECT_TRUE(merged == expected);
}

}  // namespace
}  // namespace comptx
