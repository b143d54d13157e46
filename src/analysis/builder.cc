#include "analysis/builder.h"

#include <unordered_map>

#include "core/indexing.h"
#include "util/logging.h"

namespace comptx::analysis {

ScheduleId CompositeSystemBuilder::Schedule(std::string name) {
  return cs_.AddSchedule(std::move(name));
}

NodeId CompositeSystemBuilder::Root(ScheduleId scheduler, std::string name) {
  auto id = cs_.AddRootTransaction(scheduler, std::move(name));
  COMPTX_CHECK(id.ok()) << id.status().ToString();
  return *id;
}

NodeId CompositeSystemBuilder::Sub(NodeId parent, ScheduleId scheduler,
                                   std::string name) {
  auto id = cs_.AddSubtransaction(parent, scheduler, std::move(name));
  COMPTX_CHECK(id.ok()) << id.status().ToString();
  return *id;
}

NodeId CompositeSystemBuilder::Leaf(NodeId parent, std::string name) {
  auto id = cs_.AddLeaf(parent, std::move(name));
  COMPTX_CHECK(id.ok()) << id.status().ToString();
  return *id;
}

void CompositeSystemBuilder::Conflict(NodeId a, NodeId b) {
  COMPTX_CHECK_OK(cs_.AddConflict(a, b));
}
void CompositeSystemBuilder::WeakOut(NodeId a, NodeId b) {
  COMPTX_CHECK_OK(cs_.AddWeakOutput(a, b));
}
void CompositeSystemBuilder::StrongOut(NodeId a, NodeId b) {
  COMPTX_CHECK_OK(cs_.AddStrongOutput(a, b));
}
void CompositeSystemBuilder::WeakIn(ScheduleId scheduler, NodeId t1,
                                    NodeId t2) {
  COMPTX_CHECK_OK(cs_.AddWeakInput(scheduler, t1, t2));
}
void CompositeSystemBuilder::StrongIn(ScheduleId scheduler, NodeId t1,
                                      NodeId t2) {
  COMPTX_CHECK_OK(cs_.AddStrongInput(scheduler, t1, t2));
}
void CompositeSystemBuilder::IntraWeak(NodeId txn, NodeId a, NodeId b) {
  COMPTX_CHECK_OK(cs_.AddIntraWeak(txn, a, b));
}
void CompositeSystemBuilder::IntraStrong(NodeId txn, NodeId a, NodeId b) {
  COMPTX_CHECK_OK(cs_.AddIntraStrong(txn, a, b));
}

void CompositeSystemBuilder::ExecuteInOrder(
    ScheduleId scheduler, const std::vector<NodeId>& temporal_ops,
    bool preserve_all_orders) {
  const comptx::Schedule& s = cs_.schedule(scheduler);
  std::unordered_map<NodeId, size_t> position;
  for (size_t i = 0; i < temporal_ops.size(); ++i) {
    position[temporal_ops[i]] = i;
  }
  auto before = [&](NodeId a, NodeId b) {
    auto ia = position.find(a);
    auto ib = position.find(b);
    COMPTX_CHECK(ia != position.end() && ib != position.end())
        << "operation missing from temporal order";
    return ia->second < ib->second;
  };

  // Conflicting pairs of distinct transactions: temporal direction.
  s.conflicts.ForEach([&](NodeId a, NodeId b) {
    if (cs_.node(a).parent == cs_.node(b).parent) return;
    if (before(a, b)) {
      COMPTX_CHECK_OK(cs_.AddWeakOutput(a, b));
    } else {
      COMPTX_CHECK_OK(cs_.AddWeakOutput(b, a));
    }
  });

  // Intra-transaction orders are honored by the output (Def 3.2).
  for (NodeId txn : s.transactions) {
    const std::vector<NodeId>& ops = cs_.node(txn).children;
    cs_.weak_intra().ForEachFrom(ops, [&](NodeId a, NodeId b) {
      COMPTX_CHECK_OK(cs_.AddWeakOutput(a, b));
    });
    cs_.strong_intra().ForEachFrom(ops, [&](NodeId a, NodeId b) {
      COMPTX_CHECK_OK(cs_.AddStrongOutput(a, b));
    });
  }

  // Strong input orders sequence all operation pairs (Def 3.3).
  Relation strong_in_closed =
      ClosureWithin(s.strong_input, s.transactions);
  strong_in_closed.ForEach([&](NodeId t1, NodeId t2) {
    for (NodeId a : cs_.node(t1).children) {
      for (NodeId b : cs_.node(t2).children) {
        COMPTX_CHECK_OK(cs_.AddStrongOutput(a, b));
      }
    }
  });

  if (preserve_all_orders) {
    for (size_t i = 0; i < temporal_ops.size(); ++i) {
      for (size_t j = i + 1; j < temporal_ops.size(); ++j) {
        COMPTX_CHECK_OK(cs_.AddWeakOutput(temporal_ops[i], temporal_ops[j]));
      }
    }
  }
}

void CompositeSystemBuilder::PropagateOrders() {
  for (uint32_t si = 0; si < cs_.ScheduleCount(); ++si) {
    const ScheduleId sid(si);
    const std::vector<NodeId> ops = cs_.OperationsOf(sid);
    Relation weak = ClosureWithin(cs_.schedule(sid).weak_output, ops);
    Relation strong = ClosureWithin(cs_.schedule(sid).strong_output, ops);
    auto propagate = [&](const Relation& rel, bool is_strong) {
      rel.ForEach([&](NodeId a, NodeId b) {
        const Node& na = cs_.node(a);
        const Node& nb = cs_.node(b);
        if (!na.IsTransaction() || !nb.IsTransaction()) return;
        if (na.owner_schedule != nb.owner_schedule) return;
        if (is_strong) {
          COMPTX_CHECK_OK(cs_.AddStrongInput(na.owner_schedule, a, b));
        } else {
          COMPTX_CHECK_OK(cs_.AddWeakInput(na.owner_schedule, a, b));
        }
      });
    };
    propagate(weak, /*is_strong=*/false);
    propagate(strong, /*is_strong=*/true);
  }
}

NodeId CompositeSystemBuilder::NodeByName(const std::string& name) const {
  NodeId found;
  for (uint32_t v = 0; v < cs_.NodeCount(); ++v) {
    if (cs_.node(NodeId(v)).name == name) {
      COMPTX_CHECK(!found.valid()) << "ambiguous node name: " << name;
      found = NodeId(v);
    }
  }
  COMPTX_CHECK(found.valid()) << "no node named: " << name;
  return found;
}

}  // namespace comptx::analysis
