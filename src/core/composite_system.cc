#include "core/composite_system.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace comptx {

CompositeSystem CompositeSystem::Clone() const {
  CompositeSystem copy;
  copy.nodes_ = nodes_;
  copy.live_nodes_ = live_nodes_;
  copy.schedules_ = schedules_;
  copy.weak_intra_ = weak_intra_;
  copy.strong_intra_ = strong_intra_;
  if (spec_) copy.spec_ = std::make_unique<CommutativitySpec>(*spec_);
  return copy;
}

void CompositeSystem::AppendNode(Node n) {
  nodes_.push_back(std::move(n));
  ++live_nodes_;
}

ScheduleId CompositeSystem::AddSchedule(std::string name) {
  ScheduleId id(static_cast<uint32_t>(schedules_.size()));
  Schedule s;
  s.id = id;
  s.name = std::move(name);
  schedules_.push_back(std::move(s));
  return id;
}

StatusOr<NodeId> CompositeSystem::AddRootTransaction(ScheduleId scheduler,
                                                     std::string name) {
  if (!HasSchedule(scheduler)) {
    return Status::InvalidArgument(
        StrCat("unknown schedule ", scheduler, " for root ", name));
  }
  const NodeId id = NextNodeId();
  Node n;
  n.id = id;
  n.name = std::move(name);
  n.kind = NodeKind::kTransaction;
  n.owner_schedule = scheduler;
  AppendNode(std::move(n));
  schedules_[scheduler.index()].transactions.push_back(id);
  return id;
}

StatusOr<NodeId> CompositeSystem::AddSubtransaction(NodeId parent,
                                                    ScheduleId scheduler,
                                                    std::string name) {
  if (!HasNode(parent) || !node(parent).IsTransaction()) {
    return Status::InvalidArgument(
        StrCat("parent ", parent, " is not a transaction"));
  }
  if (!HasSchedule(scheduler)) {
    return Status::InvalidArgument(
        StrCat("unknown schedule ", scheduler, " for subtransaction ", name));
  }
  if (node(parent).owner_schedule == scheduler) {
    // A transaction's operation scheduled by the transaction's own
    // scheduler would make the schedule invoke itself (Def 4.6 forbids all
    // recursion; direct self-invocation is rejected eagerly, indirect
    // recursion is caught by Validate()).
    return Status::InvalidArgument(
        StrCat("subtransaction ", name, " would make ", scheduler,
               " invoke itself"));
  }
  const NodeId id = NextNodeId();
  Node n;
  n.id = id;
  n.name = std::move(name);
  n.kind = NodeKind::kTransaction;
  n.parent = parent;
  n.owner_schedule = scheduler;
  n.host = node(parent).owner_schedule;
  AppendNode(std::move(n));
  nodes_[parent.index()].children.push_back(id);
  schedules_[scheduler.index()].transactions.push_back(id);
  return id;
}

StatusOr<NodeId> CompositeSystem::AddLeaf(NodeId parent, std::string name) {
  if (!HasNode(parent) || !node(parent).IsTransaction()) {
    return Status::InvalidArgument(
        StrCat("parent ", parent, " is not a transaction"));
  }
  const NodeId id = NextNodeId();
  Node n;
  n.id = id;
  n.name = std::move(name);
  n.kind = NodeKind::kLeaf;
  n.parent = parent;
  n.host = node(parent).owner_schedule;
  AppendNode(std::move(n));
  nodes_[parent.index()].children.push_back(id);
  return id;
}

Status CompositeSystem::CheckOperationPair(NodeId a, NodeId b,
                                           ScheduleId* host) const {
  if (!HasNode(a) || !HasNode(b)) {
    return Status::InvalidArgument(StrCat("unknown node in pair (", a, ", ",
                                          b, ")"));
  }
  ScheduleId ha = HostScheduleOf(a);
  ScheduleId hb = HostScheduleOf(b);
  if (!ha.valid() || ha != hb) {
    return Status::InvalidArgument(
        StrCat("nodes ", a, " and ", b,
               " are not operations of one common schedule"));
  }
  if (a == b) {
    return Status::InvalidArgument(StrCat("pair (", a, ", ", b,
                                          ") is reflexive"));
  }
  *host = ha;
  return Status::OK();
}

Status CompositeSystem::AddConflict(NodeId a, NodeId b) {
  ScheduleId host;
  COMPTX_RETURN_IF_ERROR(CheckOperationPair(a, b, &host));
  schedules_[host.index()].conflicts.Add(a, b);
  return Status::OK();
}

Status CompositeSystem::AddWeakOutput(NodeId a, NodeId b) {
  ScheduleId host;
  COMPTX_RETURN_IF_ERROR(CheckOperationPair(a, b, &host));
  schedules_[host.index()].weak_output.Add(a, b);
  return Status::OK();
}

Status CompositeSystem::AddStrongOutput(NodeId a, NodeId b) {
  ScheduleId host;
  COMPTX_RETURN_IF_ERROR(CheckOperationPair(a, b, &host));
  schedules_[host.index()].strong_output.Add(a, b);
  schedules_[host.index()].weak_output.Add(a, b);
  return Status::OK();
}

Status CompositeSystem::AddWeakInput(ScheduleId scheduler, NodeId t1,
                                     NodeId t2) {
  if (!HasSchedule(scheduler)) {
    return Status::InvalidArgument(StrCat("unknown schedule ", scheduler));
  }
  if (!HasNode(t1) || !HasNode(t2) || t1 == t2 ||
      node(t1).owner_schedule != scheduler ||
      node(t2).owner_schedule != scheduler) {
    return Status::InvalidArgument(
        StrCat("(", t1, ", ", t2, ") is not a pair of distinct transactions",
               " of ", scheduler));
  }
  schedules_[scheduler.index()].weak_input.Add(t1, t2);
  return Status::OK();
}

Status CompositeSystem::AddStrongInput(ScheduleId scheduler, NodeId t1,
                                       NodeId t2) {
  COMPTX_RETURN_IF_ERROR(AddWeakInput(scheduler, t1, t2));
  schedules_[scheduler.index()].strong_input.Add(t1, t2);
  return Status::OK();
}

Status CompositeSystem::AddIntraWeak(NodeId txn, NodeId a, NodeId b) {
  if (!HasNode(txn) || !node(txn).IsTransaction()) {
    return Status::InvalidArgument(StrCat(txn, " is not a transaction"));
  }
  if (!HasNode(a) || !HasNode(b) || a == b || node(a).parent != txn ||
      node(b).parent != txn) {
    return Status::InvalidArgument(
        StrCat("(", a, ", ", b, ") is not a pair of distinct operations of ",
               txn));
  }
  weak_intra_.Add(a, b);
  return Status::OK();
}

Status CompositeSystem::AddIntraStrong(NodeId txn, NodeId a, NodeId b) {
  COMPTX_RETURN_IF_ERROR(AddIntraWeak(txn, a, b));
  strong_intra_.Add(a, b);
  return Status::OK();
}

StatusOr<uint32_t> CompositeSystem::DeclareAdt(std::string name) {
  if (!spec_) spec_ = std::make_unique<CommutativitySpec>();
  return spec_->DeclareAdt(std::move(name));
}

StatusOr<uint32_t> CompositeSystem::DeclareAdtOp(uint32_t adt,
                                                 std::string name) {
  if (!spec_) spec_ = std::make_unique<CommutativitySpec>();
  return spec_->DeclareOpClass(adt, std::move(name));
}

void CompositeSystem::AttachSpec(CommutativitySpec spec) {
  spec_ = std::make_unique<CommutativitySpec>(std::move(spec));
}

Status CompositeSystem::DeclareCommute(uint32_t c1, uint32_t c2) {
  if (!spec_) spec_ = std::make_unique<CommutativitySpec>();
  return spec_->SetEntry(c1, c2, CommuteEntry::kCommutes);
}

Status CompositeSystem::DeclareClash(uint32_t c1, uint32_t c2) {
  if (!spec_) spec_ = std::make_unique<CommutativitySpec>();
  return spec_->SetEntry(c1, c2, CommuteEntry::kConflicts);
}

Status CompositeSystem::TagOperation(NodeId id, uint32_t op_class,
                                     uint32_t instance) {
  if (!HasNode(id)) {
    return Status::InvalidArgument(StrCat("unknown node ", id));
  }
  if (!spec_ || !spec_->HasClass(op_class)) {
    return Status::InvalidArgument(
        StrCat("tag on ", id, " references undeclared operation class ",
               op_class));
  }
  if (instance == kInvalidIndex) {
    return Status::InvalidArgument(
        StrCat("tag on ", id, " uses the reserved instance index"));
  }
  nodes_[id.index()].sem_class = op_class;
  nodes_[id.index()].sem_instance = instance;
  return Status::OK();
}

bool CompositeSystem::SemanticallyCommutes(NodeId a, NodeId b) const {
  if (!spec_) return false;
  const Node& na = node(a);
  const Node& nb = node(b);
  if (na.sem_class == kInvalidIndex || nb.sem_class == kInvalidIndex) {
    return false;
  }
  // Distinct ADT instances (or distinct ADTs) never interfere.
  if (na.sem_instance != nb.sem_instance) return true;
  return spec_->Commutes(na.sem_class, nb.sem_class);
}

const Node& CompositeSystem::node(NodeId id) const {
  COMPTX_CHECK(HasNode(id)) << "node id out of range: " << id;
  return nodes_[id.index()];
}

const Schedule& CompositeSystem::schedule(ScheduleId id) const {
  COMPTX_CHECK(HasSchedule(id)) << "schedule id out of range: " << id;
  return schedules_[id.index()];
}

Schedule& CompositeSystem::mutable_schedule(ScheduleId id) {
  COMPTX_CHECK(HasSchedule(id)) << "schedule id out of range: " << id;
  return schedules_[id.index()];
}

ScheduleId CompositeSystem::HostScheduleOf(NodeId id) const {
  return node(id).host;
}

std::vector<NodeId> CompositeSystem::LiveNodes() const {
  std::vector<NodeId> out;
  out.reserve(live_nodes_);
  for (uint64_t v = nodes_.begin(); v < nodes_.end(); ++v) {
    if (nodes_[v].id.valid()) out.push_back(nodes_[v].id);
  }
  return out;
}

std::vector<NodeId> CompositeSystem::Roots() const {
  std::vector<NodeId> out;
  for (uint64_t v = nodes_.begin(); v < nodes_.end(); ++v) {
    const Node& n = nodes_[v];
    if (n.id.valid() && n.IsRoot()) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> CompositeSystem::Leaves() const {
  std::vector<NodeId> out;
  for (uint64_t v = nodes_.begin(); v < nodes_.end(); ++v) {
    const Node& n = nodes_[v];
    if (n.id.valid() && n.IsLeaf()) out.push_back(n.id);
  }
  return out;
}

Status CompositeSystem::ReleaseSubtree(NodeId root) {
  if (!HasNode(root) || !node(root).IsRoot()) {
    return Status::InvalidArgument(
        StrCat("release of ", root, ": not a live root transaction"));
  }
  std::vector<NodeId>& subtree = release_scratch_;
  subtree.assign(1, root);
  ForEachDescendant(root, [&](NodeId d) { subtree.push_back(d); });
  for (NodeId n : subtree) {
    const Node& nd = node(n);
    weak_intra_.RemoveSource(n);
    strong_intra_.RemoveSource(n);
    if (nd.parent.valid()) {
      Schedule& host = schedules_[HostScheduleOf(n).index()];
      host.conflicts.RemoveNode(n);
      host.weak_output.RemoveSource(n);
      host.strong_output.RemoveSource(n);
    }
    if (nd.IsTransaction()) {
      Schedule& owner = schedules_[nd.owner_schedule.index()];
      owner.weak_input.RemoveSource(n);
      owner.strong_input.RemoveSource(n);
      // Transactions are listed in creation (ascending id) order.
      std::vector<NodeId>& txns = owner.transactions;
      txns.erase(std::lower_bound(txns.begin(), txns.end(), n));
    }
  }
  // Tombstone the slots only after every lookup above is done.
  for (NodeId n : subtree) nodes_[n.index()] = Node();
  live_nodes_ -= subtree.size();
  while (!nodes_.empty() && !nodes_.front().id.valid()) {
    nodes_.DropBefore(nodes_.begin() + 1);
  }
  return Status::OK();
}

Status CompositeSystem::RequireWholeForest() const {
  if (!HasReleased()) return Status::OK();
  return Status::FailedPrecondition(
      StrCat(NodeCount() - live_nodes_, " of ", NodeCount(),
             " node ids are released; batch analyses need the whole forest"));
}

void CompositeSystem::SkipReleasedIds(uint32_t next_id) {
  nodes_.ExtendTo(next_id, Node());
}

std::vector<NodeId> CompositeSystem::OperationsOf(ScheduleId scheduler) const {
  std::vector<NodeId> out;
  for (NodeId txn : schedule(scheduler).transactions) {
    const Node& t = node(txn);
    out.insert(out.end(), t.children.begin(), t.children.end());
  }
  return out;
}

std::vector<NodeId> CompositeSystem::Descendants(NodeId txn) const {
  std::vector<NodeId> out;
  ForEachDescendant(txn, [&](NodeId d) { out.push_back(d); });
  return out;
}

NodeId CompositeSystem::RootOf(NodeId id) const {
  NodeId cur = id;
  while (node(cur).parent.valid()) cur = node(cur).parent;
  return cur;
}

std::vector<ScheduleId> CompositeSystem::InvokersOf(ScheduleId callee) const {
  std::vector<ScheduleId> out;
  for (NodeId txn : schedule(callee).transactions) {
    ScheduleId host = HostScheduleOf(txn);
    if (!host.valid()) continue;  // root transaction: no invoker
    bool seen = false;
    for (ScheduleId s : out) seen = seen || s == host;
    if (!seen) out.push_back(host);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t CompositeSystem::RootsServed(ScheduleId s) const {
  std::vector<NodeId> roots;
  for (NodeId txn : schedule(s).transactions) {
    NodeId root = RootOf(txn);
    bool seen = false;
    for (NodeId r : roots) seen = seen || r == root;
    if (!seen) roots.push_back(root);
  }
  return roots.size();
}

std::vector<std::pair<NodeId, NodeId>> CompositeSystem::CrossRootConflicts(
    ScheduleId s) const {
  std::vector<std::pair<NodeId, NodeId>> out;
  schedule(s).conflicts.ForEach([&](NodeId a, NodeId b) {
    if (RootOf(a) != RootOf(b)) out.emplace_back(a, b);
  });
  return out;
}

SubtreeIndex::SubtreeIndex(const CompositeSystem& cs)
    : enter_(cs.NodeCount(), 0), exit_(cs.NodeCount(), 0) {
  uint32_t clock = 0;
  // Iterative preorder/postorder numbering per root.
  for (NodeId root : cs.Roots()) {
    // Frame: (node, entered?).
    std::vector<std::pair<NodeId, bool>> stack;
    stack.emplace_back(root, false);
    while (!stack.empty()) {
      auto [cur, entered] = stack.back();
      stack.pop_back();
      if (entered) {
        exit_[cur.index()] = clock++;
        continue;
      }
      enter_[cur.index()] = clock++;
      stack.emplace_back(cur, true);
      const Node& n = cs.node(cur);
      for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
        stack.emplace_back(*it, false);
      }
    }
  }
}

}  // namespace comptx
