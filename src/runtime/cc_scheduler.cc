#include "runtime/cc_scheduler.h"

namespace comptx::runtime {

bool RootOrderManager::HasPath(uint32_t from, uint32_t to) const {
  if (from == to) return true;
  std::set<uint32_t> seen;
  std::vector<uint32_t> stack = {from};
  seen.insert(from);
  while (!stack.empty()) {
    uint32_t v = stack.back();
    stack.pop_back();
    auto it = out_.find(v);
    if (it == out_.end()) continue;
    for (uint32_t w : it->second) {
      if (w == to) return true;
      if (seen.insert(w).second) stack.push_back(w);
    }
  }
  return false;
}

bool RootOrderManager::TryAddEdges(
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  // Tentatively add, checking each edge against the growing graph; revert
  // everything on failure.
  std::vector<std::pair<uint32_t, uint32_t>> added;
  for (const auto& [from, to] : edges) {
    if (from == to) continue;
    if (edges_.count({from, to}) > 0) continue;
    if (HasPath(to, from)) {
      for (const auto& [f, t] : added) {
        edges_.erase({f, t});
        out_[f].erase(t);
      }
      return false;
    }
    edges_.insert({from, to});
    out_[from].insert(to);
    added.emplace_back(from, to);
  }
  return true;
}

void RootOrderManager::RemoveRoot(uint32_t root) {
  for (auto it = edges_.begin(); it != edges_.end();) {
    if (it->first == root || it->second == root) {
      out_[it->first].erase(it->second);
      it = edges_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace comptx::runtime
