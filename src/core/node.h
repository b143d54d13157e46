#ifndef COMPTX_CORE_NODE_H_
#define COMPTX_CORE_NODE_H_

#include <string>
#include <vector>

#include "core/ids.h"

namespace comptx {

/// Classification of a node in the computational forest (paper Def 4,
/// points 3-5).  A transaction node is a *root* when it has no parent and an
/// *internal node* otherwise; whether it is one or the other is derived, not
/// stored.
enum class NodeKind : uint8_t {
  /// An elementary operation: belongs to some schedule's operation set but
  /// is no schedule's transaction (set L in Def 4).
  kLeaf,
  /// A transaction: element of exactly one schedule's transaction set
  /// (sets I and R in Def 4).  Its children are its operations O_t.
  kTransaction,
};

/// One node of the computational forest.  Passive data owned by
/// CompositeSystem; ids inside refer to the owning system's arenas.
///
/// For a transaction node (Def 2), `children` is O_t; its orders ≺_t and
/// ≪_t are the rows of those children in the owning system's
/// CompositeSystem::weak_intra / strong_intra.
struct Node {
  NodeId id;
  std::string name;
  NodeKind kind = NodeKind::kLeaf;

  /// The transaction this node is an operation of; invalid for roots
  /// (Def 5: parent(t) = t for roots — represented here as "no parent").
  NodeId parent;

  /// For transactions: the schedule whose transaction set contains this
  /// node (Def 4 point 1 guarantees uniqueness).  Invalid for leaves.
  ScheduleId owner_schedule;

  /// The schedule this node is an operation of: the parent's owner
  /// schedule, fixed at creation.  Invalid for roots.
  ScheduleId host;

  /// For transactions: operations O_t in creation order.  Empty for leaves.
  std::vector<NodeId> children;

  /// Semantic tag: global operation-class index into the owning system's
  /// CommutativitySpec, or kInvalidIndex when untagged.  Untagged nodes
  /// never commute semantically, so tags only ever erase conflicts.
  uint32_t sem_class = kInvalidIndex;
  /// Semantic tag: the ADT instance (object identity) this operation acts
  /// on.  Operations on distinct instances always commute.
  uint32_t sem_instance = kInvalidIndex;

  bool IsTransaction() const { return kind == NodeKind::kTransaction; }
  bool IsLeaf() const { return kind == NodeKind::kLeaf; }
  bool IsRoot() const { return IsTransaction() && !parent.valid(); }
};

}  // namespace comptx

#endif  // COMPTX_CORE_NODE_H_
