#include "core/relation.h"

#include <algorithm>

#include "util/logging.h"

namespace comptx {

namespace relation_internal {

bool Row::Insert(uint32_t id) {
  if (!bits.TestAndSet(id)) return false;
  // Common case: pairs arrive in ascending target order (closure
  // materialization, pull-ups over sorted fronts), so appending wins.
  if (elems.empty() || id > elems.back()) {
    elems.push_back(id);
  } else {
    elems.insert(std::lower_bound(elems.begin(), elems.end(), id), id);
  }
  return true;
}

bool Row::Erase(uint32_t id) {
  if (!bits.Reset(id)) return false;
  elems.erase(std::lower_bound(elems.begin(), elems.end(), id));
  return true;
}

Row& RowStore::RowOf(uint32_t source) {
  const auto [row, created] = rows_.Acquire(source);
  if (!created) return *row;
  // Common case: sources arrive in ascending order, so appending wins.
  if (sources_.empty() || source > sources_.back()) {
    sources_.push_back(source);
  } else {
    sources_.insert(
        std::lower_bound(sources_.begin(), sources_.end(), source), source);
  }
  return *row;
}

void RowStore::DropRow(uint32_t source) {
  Row& row = *rows_.Find(source);
  row.elems.clear();
  row.bits.Clear();
  rows_.Release(source);
  sources_.erase(std::lower_bound(sources_.begin(), sources_.end(), source));
  if (sources_.empty()) return;
  // Narrow the directory window to [front source, back source].
  rows_.DropBefore(sources_.front());
  rows_.DropAfter(sources_.back());
}

bool RowStore::operator==(const RowStore& other) const {
  if (sources_ != other.sources_) return false;
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (RowAt(i).elems != other.RowAt(i).elems) return false;
  }
  return true;
}

}  // namespace relation_internal

bool Relation::Add(NodeId a, NodeId b) {
  COMPTX_CHECK(a.valid());
  COMPTX_CHECK(b.valid());
  const bool inserted = store_.RowOf(a.index()).Insert(b.index());
  if (inserted) ++pair_count_;
  return inserted;
}

bool Relation::Remove(NodeId a, NodeId b) {
  relation_internal::Row* row = store_.FindRow(a.index());
  if (row == nullptr || !row->Erase(b.index())) return false;
  --pair_count_;
  if (row->elems.empty()) store_.DropRow(a.index());
  return true;
}

size_t Relation::RemoveSource(NodeId a) {
  const relation_internal::Row* row = store_.FindRow(a.index());
  if (row == nullptr) return 0;
  const size_t removed = row->elems.size();
  pair_count_ -= removed;
  store_.DropRow(a.index());
  return removed;
}

void Relation::AddAll(NodeId src, std::span<const uint32_t> targets) {
  if (targets.empty()) return;
  COMPTX_CHECK(src.valid());
  relation_internal::Row& row = store_.RowOf(src.index());
  const auto [lo, hi] = std::minmax_element(targets.begin(), targets.end());
  row.bits.Cover(*lo, *hi);
  // Geometric, so a row that gains targets over many calls still grows
  // by doubling.
  const size_t want = row.elems.size() + targets.size();
  if (want > row.elems.capacity()) {
    row.elems.reserve(std::max(want, 2 * row.elems.capacity()));
  }
  for (uint32_t t : targets) {
    if (row.Insert(t)) ++pair_count_;
  }
}

std::vector<NodeId> Relation::Successors(NodeId a) const {
  std::vector<NodeId> out;
  const std::span<const uint32_t> ids = SuccessorIds(a);
  out.reserve(ids.size());
  for (uint32_t to : ids) out.push_back(NodeId(to));
  return out;
}

void Relation::UnionWith(const Relation& other) {
  other.ForEach([&](NodeId a, NodeId b) { Add(a, b); });
}

bool Relation::ContainsAllOf(const Relation& other) const {
  bool all = true;
  other.ForEach([&](NodeId a, NodeId b) {
    if (!Contains(a, b)) all = false;
  });
  return all;
}

std::vector<std::pair<NodeId, NodeId>> Relation::Pairs() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(pair_count_);
  ForEach([&](NodeId a, NodeId b) { out.emplace_back(a, b); });
  return out;
}

bool SymmetricPairSet::Add(NodeId a, NodeId b) {
  COMPTX_CHECK(a.valid());
  COMPTX_CHECK(b.valid());
  COMPTX_CHECK(a != b) << "conflict pairs are irreflexive";
  const bool inserted = store_.RowOf(a.index()).Insert(b.index());
  store_.RowOf(b.index()).Insert(a.index());
  if (inserted) ++pair_count_;
  return inserted;
}

size_t SymmetricPairSet::RemoveNode(NodeId a) {
  const relation_internal::Row* row = store_.FindRow(a.index());
  if (row == nullptr) return 0;
  // Dropping a peer's row leaves the row of `a` in place, so its elements
  // can be walked while the peers' back pairs go.
  for (uint32_t peer : row->elems) {
    relation_internal::Row* back = store_.FindRow(peer);
    back->Erase(a.index());
    if (back->elems.empty()) store_.DropRow(peer);
  }
  const size_t removed = row->elems.size();
  store_.DropRow(a.index());
  pair_count_ -= removed;
  return removed;
}

std::vector<NodeId> SymmetricPairSet::PeersOf(NodeId a) const {
  std::vector<NodeId> out;
  const std::span<const uint32_t> ids = PeerIds(a);
  out.reserve(ids.size());
  for (uint32_t peer : ids) out.push_back(NodeId(peer));
  return out;
}

void SymmetricPairSet::UnionWith(const SymmetricPairSet& other) {
  other.ForEach([&](NodeId a, NodeId b) { Add(a, b); });
}

}  // namespace comptx
