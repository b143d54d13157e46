#ifndef COMPTX_GRAPH_TRANSITIVE_CLOSURE_H_
#define COMPTX_GRAPH_TRANSITIVE_CLOSURE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/digraph.h"

namespace comptx::graph {

/// Reachability oracle for a digraph, built once in O(V * E / 64) using
/// bitset rows.  The paper's orders are "in all cases transitively closed"
/// (Def 1); this type is how the library answers closed-order membership
/// questions without materializing quadratic edge sets.
class TransitiveClosure {
 public:
  /// Builds reachability for `g` (handles cycles; a node reaches itself
  /// only if it lies on a cycle or has a self-loop).
  explicit TransitiveClosure(const Digraph& g);

  /// True iff there is a non-empty directed path from `from` to `to`.
  bool Reaches(NodeIndex from, NodeIndex to) const;

  /// Invokes `f(NodeIndex to)` for every node reachable from `from`, in
  /// ascending index order, scanning whole 64-bit words at a time.  This
  /// is how callers should enumerate a closure (O(n / 64 + reachable)
  /// per row instead of n bit probes).
  template <typename F>
  void ForEachReachable(NodeIndex from, F f) const {
    const uint64_t* row = bits_.data() + from * words_per_row_;
    for (size_t w = 0; w < words_per_row_; ++w) {
      uint64_t word = row[w];
      const NodeIndex base = static_cast<NodeIndex>(w * 64);
      while (word != 0) {
        f(base + static_cast<NodeIndex>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

 private:
  size_t words_per_row_;
  std::vector<uint64_t> bits_;

  bool TestBit(NodeIndex row, NodeIndex col) const {
    return (bits_[row * words_per_row_ + col / 64] >> (col % 64)) & 1;
  }
  void SetBit(NodeIndex row, NodeIndex col) {
    bits_[row * words_per_row_ + col / 64] |= uint64_t{1} << (col % 64);
  }
  void OrRow(NodeIndex dst, NodeIndex src) {
    for (size_t w = 0; w < words_per_row_; ++w) {
      bits_[dst * words_per_row_ + w] |= bits_[src * words_per_row_ + w];
    }
  }
};

}  // namespace comptx::graph

#endif  // COMPTX_GRAPH_TRANSITIVE_CLOSURE_H_
