#ifndef COMPTX_RUNTIME_CC_SCHEDULER_H_
#define COMPTX_RUNTIME_CC_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace comptx::runtime {

/// Global root-transaction order manager for the kOpenValidated protocol
/// (the ticket method the paper's §4 cites): maintains the union of all
/// component-level serialization edges projected onto root transactions
/// and refuses additions that would close a cycle.
class RootOrderManager {
 public:
  /// Atomically adds `edges` (pairs earlier-root -> later-root).  Returns
  /// false and leaves the graph unchanged if the addition would create a
  /// cycle.
  bool TryAddEdges(const std::vector<std::pair<uint32_t, uint32_t>>& edges);

  /// Removes every edge incident to `root` (called when the root aborts:
  /// its committed subtransactions are compensated, so the orders they
  /// established disappear).
  void RemoveRoot(uint32_t root);

  size_t EdgeCount() const { return edges_.size(); }

 private:
  bool HasPath(uint32_t from, uint32_t to) const;

  std::set<std::pair<uint32_t, uint32_t>> edges_;
  std::map<uint32_t, std::set<uint32_t>> out_;
};

}  // namespace comptx::runtime

#endif  // COMPTX_RUNTIME_CC_SCHEDULER_H_
