#ifndef COMPTX_CORE_RELATION_H_
#define COMPTX_CORE_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/ids.h"
#include "util/bitrow.h"
#include "util/slot_pool.h"

namespace comptx {

namespace relation_internal {

/// One adjacency row of a dense relation: the sorted target ids (the
/// deterministic iteration path) plus a windowed bitset over the same ids
/// (the O(1) membership path).  Both views always agree.
struct Row {
  std::vector<uint32_t> elems;  // targets, ascending
  BitRow bits;                  // membership mirror of elems

  /// Inserts `id`; returns true iff it was new.
  bool Insert(uint32_t id);
  /// Removes `id`; returns true iff it was present.
  bool Erase(uint32_t id);
};

/// Shared storage of Relation and SymmetricPairSet: rows keyed by source
/// node id in a SlotPool, plus `sources_`, the sources in ascending order
/// (the deterministic iteration path).  The pool's directory is windowed
/// to the span of source ids actually present (sources are sparse in the
/// global id space — one schedule's input order touches a handful of ids
/// out of thousands — so the window, like the rows' bitsets, keeps
/// memory proportional to the pairs stored while every probe is O(1)).
/// Dropping a row clears it in place and frees its slot with its element
/// and bitset storage, so a store whose sources come and go (the online
/// engine's relations, pruned on every commit) reaches a steady state
/// that allocates nothing; rows never move, and the directory window
/// narrows to the live sources.
class RowStore {
 public:
  /// The row of `source`, creating it if absent.
  Row& RowOf(uint32_t source);
  /// The row of `source`, or nullptr.
  const Row* FindRow(uint32_t source) const { return rows_.Find(source); }
  Row* FindRow(uint32_t source) { return rows_.Find(source); }
  /// Drops the row of `source` (which must exist).  Other rows, and
  /// pointers to them, are unaffected.
  void DropRow(uint32_t source);

  size_t SourceCount() const { return sources_.size(); }
  uint32_t SourceAt(size_t i) const { return sources_[i]; }
  const Row& RowAt(size_t i) const { return *rows_.Find(sources_[i]); }

  bool operator==(const RowStore& other) const;

 private:
  std::vector<uint32_t> sources_;  // ascending
  SlotPool<Row> rows_;             // dropped rows are kept empty for reuse
};

}  // namespace relation_internal

/// A binary relation over node ids (a set of ordered pairs).  Used for every
/// order in the paper: weak/strong input and output orders (Def 3),
/// intra-transaction orders (Def 2), and the observed order (Def 10).
///
/// Storage is dense per source: a sorted flat vector of targets drives
/// deterministic iteration (sources ascending, then targets ascending —
/// the exact order the previous map-of-sets layout produced, so failure
/// witnesses and generated workloads stay reproducible bit-for-bit), and a
/// windowed bitset row answers Contains in O(1).  Const member functions
/// are safe to call concurrently; mutation is single-threaded.  Batch
/// callers only ever add; the online engine also removes the pairs of
/// pruned nodes (online::LiveRelation).
class Relation {
 public:
  Relation() = default;

  /// Adds the ordered pair (a, b).  Returns true if it was new.
  bool Add(NodeId a, NodeId b);

  /// Removes the pair (a, b).  Returns true if it was present.  A row left
  /// empty is dropped, so SourceCount and iteration still cover exactly
  /// the sources that have pairs.
  bool Remove(NodeId a, NodeId b);

  /// Removes every pair with source `a`; returns how many there were.
  size_t RemoveSource(NodeId a);

  /// Adds (src, t) for every t in `targets`, resolving the row only once.
  /// The bulk path for closure materialization, where one source gains
  /// hundreds of targets at a time.
  void AddAll(NodeId src, const std::vector<uint32_t>& targets);

  /// True iff (a, b) is in the relation.
  bool Contains(NodeId a, NodeId b) const {
    const relation_internal::Row* row = store_.FindRow(a.index());
    return row != nullptr && row->bits.Test(b.index());
  }

  /// Number of ordered pairs.
  size_t PairCount() const { return pair_count_; }
  bool empty() const { return pair_count_ == 0; }

  /// Invokes `f(NodeId from, NodeId to)` for each pair, in (from, to)
  /// lexicographic order.
  template <typename F>
  void ForEach(F f) const {
    for (size_t i = 0; i < store_.SourceCount(); ++i) {
      const NodeId from(store_.SourceAt(i));
      for (uint32_t to : store_.RowAt(i).elems) f(from, NodeId(to));
    }
  }

  /// Successors of `a` in ascending id order (empty if none).  Allocates;
  /// hot paths should use SuccessorIds or ForEachSuccessor instead.
  std::vector<NodeId> Successors(NodeId a) const;

  /// The successor ids of `a` in ascending order, without copying.  The
  /// span is invalidated by any mutation of the relation.
  std::span<const uint32_t> SuccessorIds(NodeId a) const {
    const relation_internal::Row* row = store_.FindRow(a.index());
    if (row == nullptr) return {};
    return {row->elems.data(), row->elems.size()};
  }

  /// Invokes `f(NodeId to)` for each successor of `a` in ascending order.
  template <typename F>
  void ForEachSuccessor(NodeId a, F f) const {
    for (uint32_t to : SuccessorIds(a)) f(NodeId(to));
  }

  /// ForEach restricted to the rows of `sources`, in that order: one
  /// transaction's pairs of a system-wide intra order, in O(children).
  template <typename F>
  void ForEachFrom(const std::vector<NodeId>& sources, F f) const {
    for (NodeId a : sources) ForEachSuccessor(a, [&](NodeId b) { f(a, b); });
  }

  /// Number of distinct sources (rows); with SourceAt/SuccessorsAt this
  /// lets a scan hoist per-source work out of its inner loop.
  size_t SourceCount() const { return store_.SourceCount(); }
  NodeId SourceAt(size_t i) const { return NodeId(store_.SourceAt(i)); }
  std::span<const uint32_t> SuccessorsAt(size_t i) const {
    const relation_internal::Row& row = store_.RowAt(i);
    return {row.elems.data(), row.elems.size()};
  }

  /// Adds every pair of `other` into this relation.
  void UnionWith(const Relation& other);

  /// True iff every pair of `other` is also in this relation.
  bool ContainsAllOf(const Relation& other) const;

  /// The relation restricted to pairs whose endpoints satisfy `keep`.
  template <typename Pred>
  Relation RestrictedTo(Pred keep) const {
    Relation out;
    ForEach([&](NodeId a, NodeId b) {
      if (keep(a) && keep(b)) out.Add(a, b);
    });
    return out;
  }

  /// All pairs in deterministic order.
  std::vector<std::pair<NodeId, NodeId>> Pairs() const;

  bool operator==(const Relation& other) const {
    return pair_count_ == other.pair_count_ && store_ == other.store_;
  }

 private:
  relation_internal::RowStore store_;
  size_t pair_count_ = 0;
};

/// An irreflexive symmetric pair set, used for conflict predicates
/// (Def 3's CON_S and Def 11's generalized CON).  Adding (a, b) also makes
/// Contains(b, a) true; self-pairs are rejected.  Same dense storage and
/// iteration-order guarantees as Relation.
class SymmetricPairSet {
 public:
  SymmetricPairSet() = default;

  /// Adds the unordered pair {a, b}; requires a != b.  Returns true if new.
  bool Add(NodeId a, NodeId b);

  /// Removes every pair containing `a`; returns how many there were.
  size_t RemoveNode(NodeId a);

  /// True iff {a, b} is in the set.
  bool Contains(NodeId a, NodeId b) const {
    const relation_internal::Row* row = store_.FindRow(a.index());
    return row != nullptr && row->bits.Test(b.index());
  }

  /// Number of unordered pairs.
  size_t PairCount() const { return pair_count_; }
  bool empty() const { return pair_count_ == 0; }

  /// Peers of `a` in ascending id order.  Allocates; hot paths should use
  /// PeerIds instead.
  std::vector<NodeId> PeersOf(NodeId a) const;

  /// The peer ids of `a` in ascending order, without copying.
  std::span<const uint32_t> PeerIds(NodeId a) const {
    const relation_internal::Row* row = store_.FindRow(a.index());
    if (row == nullptr) return {};
    return {row->elems.data(), row->elems.size()};
  }

  /// Invokes `f(a, b)` once per unordered pair with a.index() < b.index().
  template <typename F>
  void ForEach(F f) const {
    for (size_t i = 0; i < store_.SourceCount(); ++i) {
      const uint32_t a = store_.SourceAt(i);
      for (uint32_t b : store_.RowAt(i).elems) {
        if (a < b) f(NodeId(a), NodeId(b));
      }
    }
  }

  void UnionWith(const SymmetricPairSet& other);

  bool operator==(const SymmetricPairSet& other) const {
    return pair_count_ == other.pair_count_ && store_ == other.store_;
  }

 private:
  relation_internal::RowStore store_;
  size_t pair_count_ = 0;
};

}  // namespace comptx

#endif  // COMPTX_CORE_RELATION_H_
