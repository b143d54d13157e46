#ifndef COMPTX_CORE_INDEXING_H_
#define COMPTX_CORE_INDEXING_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/ids.h"
#include "core/relation.h"
#include "graph/digraph.h"
#include "graph/transitive_closure.h"
#include "util/bitrow.h"
#include "util/logging.h"

namespace comptx {

/// Bidirectional mapping between a set of NodeIds and dense local indices
/// [0, size).  All graph algorithms work on dense indices; this is the
/// bridge from the model's ids.
///
/// The id -> local direction is a direct-mapped array windowed to
/// [min id, max id]: node ids are allocated densely by the system, so the
/// window never exceeds the node count, and every probe is one bounds
/// check plus one load — index maps are built once per front or closure
/// domain and then probed millions of times, where this beats both a hash
/// table (hashing, rehashing) and a sorted array (log n probes).
class NodeIndexMap {
 public:
  explicit NodeIndexMap(std::vector<NodeId> nodes)
      : globals_(std::move(nodes)) {
    if (globals_.empty()) return;
    uint32_t lo = UINT32_MAX;
    uint32_t hi = 0;
    for (NodeId id : globals_) {
      lo = std::min(lo, id.index());
      hi = std::max(hi, id.index());
    }
    base_ = lo;
    local_.assign(size_t(hi) - lo + 1, kMissing);
    for (size_t i = 0; i < globals_.size(); ++i) {
      uint32_t& slot = local_[globals_[i].index() - base_];
      COMPTX_CHECK(slot == kMissing)
          << "duplicate node in index map: " << globals_[i];
      slot = static_cast<uint32_t>(i);
    }
  }

  size_t size() const { return globals_.size(); }

  bool Has(NodeId id) const { return TryLocalOf(id).has_value(); }

  uint32_t LocalOf(NodeId id) const {
    std::optional<uint32_t> local = TryLocalOf(id);
    COMPTX_CHECK(local.has_value()) << "node not in index map: " << id;
    // The CHECK above aborts when disengaged; opaque to clang-tidy.
    return *local;  // NOLINT(bugprone-unchecked-optional-access)
  }

  std::optional<uint32_t> TryLocalOf(NodeId id) const {
    const uint32_t x = id.index();
    if (x < base_ || x - base_ >= local_.size()) return std::nullopt;
    const uint32_t local = local_[x - base_];
    if (local == kMissing) return std::nullopt;
    return local;
  }

  NodeId GlobalOf(uint32_t local) const {
    COMPTX_CHECK_LT(local, globals_.size());
    return globals_[local];
  }

  const std::vector<NodeId>& nodes() const { return globals_; }

 private:
  static constexpr uint32_t kMissing = UINT32_MAX;

  std::vector<NodeId> globals_;
  uint32_t base_ = 0;
  std::vector<uint32_t> local_;  // windowed id -> local, kMissing = absent
};

/// O(1) membership over a fixed set of NodeIds — the hot-loop companion of
/// a node list (Front::ContainsNode does a binary search per probe; stages
/// that probe per relation pair build one of these first).
class NodeBitSet {
 public:
  NodeBitSet() = default;
  explicit NodeBitSet(const std::vector<NodeId>& nodes) {
    for (NodeId id : nodes) bits_.TestAndSet(id.index());
  }

  bool Contains(NodeId id) const { return bits_.Test(id.index()); }

 private:
  BitRow bits_;
};

/// Adds `rel`'s pairs to `g` (over `index`'s local ids).  Pairs with an
/// endpoint outside the index are silently dropped (this is the common
/// "restrict to a front" operation).  The source lookup is hoisted per row.
/// A relation with more rows than a sorted index has nodes (a system-wide
/// intra order read for one transaction) is read at the index's rows
/// only: the same edges in the same order, in O(domain).
inline void AddRelationEdges(const Relation& rel, const NodeIndexMap& index,
                             graph::Digraph& g) {
  const std::vector<NodeId>& nodes = index.nodes();
  const bool by_domain = rel.SourceCount() > nodes.size() &&
                         std::is_sorted(nodes.begin(), nodes.end());
  const size_t rows = by_domain ? nodes.size() : rel.SourceCount();
  for (size_t i = 0; i < rows; ++i) {
    const NodeId a = by_domain ? nodes[i] : rel.SourceAt(i);
    auto la = index.TryLocalOf(a);
    if (!la) continue;
    for (uint32_t to : by_domain ? rel.SuccessorIds(a) : rel.SuccessorsAt(i)) {
      if (auto lb = index.TryLocalOf(NodeId(to))) g.AddEdge(*la, *lb);
    }
  }
}

/// Converts `rel` into a digraph over `index`'s local ids.
inline graph::Digraph RelationToDigraph(const Relation& rel,
                                        const NodeIndexMap& index) {
  graph::Digraph g(index.size());
  AddRelationEdges(rel, index, g);
  return g;
}

/// The closure of `g` as a Relation over `index`'s global ids.  Local
/// order must follow id order, so every row is appended in ascending id
/// order and sized once.
inline Relation ClosureRelation(const graph::Digraph& g,
                                const NodeIndexMap& index) {
  graph::TransitiveClosure closure(g);
  Relation out;
  std::vector<uint32_t> row;
  for (uint32_t a = 0; a < index.size(); ++a) {
    row.clear();
    closure.ForEachReachable(
        a, [&](uint32_t b) { row.push_back(index.GlobalOf(b).index()); });
    out.AddAll(index.GlobalOf(a), row);
  }
  return out;
}

/// The transitive closure of `rel` restricted to `domain`, returned as a
/// Relation over the original NodeIds.  Pairs leaving the domain are
/// dropped before closing.
inline Relation ClosureWithin(const Relation& rel,
                              const std::vector<NodeId>& domain) {
  // One probe per node skips a domain without rows (most transactions).
  const auto has_row = [&](NodeId v) { return !rel.SuccessorIds(v).empty(); };
  if (std::none_of(domain.begin(), domain.end(), has_row)) return Relation();
  std::vector<NodeId> sorted = domain;
  std::sort(sorted.begin(), sorted.end());
  const NodeIndexMap index(std::move(sorted));
  return ClosureRelation(RelationToDigraph(rel, index), index);
}

/// The transitive closure of the pairs that `for_each_pair(emit)` passes
/// to `emit(a, b)`, over just the nodes they touch.  The walk is where a
/// caller drops the pairs it does not want, so no filtered copy of a
/// relation is built; it runs twice (nodes, then edges) and must emit the
/// same pairs both times.
template <typename ForEachPair>
Relation ClosureOfPairs(const ForEachPair& for_each_pair) {
  std::vector<NodeId> touched;
  for_each_pair([&](NodeId a, NodeId b) {
    touched.push_back(a);
    touched.push_back(b);
  });
  if (touched.empty()) return Relation();
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const NodeIndexMap index(std::move(touched));
  graph::Digraph g(index.size());
  for_each_pair([&](NodeId a, NodeId b) {
    g.AddEdge(index.LocalOf(a), index.LocalOf(b));
  });
  return ClosureRelation(g, index);
}

}  // namespace comptx

#endif  // COMPTX_CORE_INDEXING_H_
