#include "workload/schedule_gen.h"

#include <algorithm>
#include <vector>

#include "core/commutativity.h"
#include "core/indexing.h"
#include "core/invocation_graph.h"
#include "graph/digraph.h"
#include "util/string_util.h"

namespace comptx::workload {

const char* AdtMixToString(AdtMix mix) {
  switch (mix) {
    case AdtMix::kNone:
      return "none";
    case AdtMix::kCounter:
      return "counter";
    case AdtMix::kSet:
      return "set";
    case AdtMix::kQueue:
      return "queue";
    case AdtMix::kEscrow:
      return "escrow";
    case AdtMix::kMixed:
      return "mixed";
  }
  return "unknown";
}

StatusOr<AdtMix> ParseAdtMix(const std::string& name) {
  for (AdtMix mix : {AdtMix::kNone, AdtMix::kCounter, AdtMix::kSet,
                     AdtMix::kQueue, AdtMix::kEscrow, AdtMix::kMixed}) {
    if (name == AdtMixToString(mix)) return mix;
  }
  return Status::InvalidArgument(
      StrCat("unknown ADT mix \"", name,
             "\" (want none|counter|set|queue|escrow|mixed)"));
}

namespace {

/// True iff `to` is reachable from `from` in `g` (DFS; graphs here are
/// schedule-sized, so this on-demand check is cheap).
bool Reaches(const graph::Digraph& g, uint32_t from, uint32_t to) {
  if (from == to) return true;
  std::vector<bool> seen(g.NodeCount(), false);
  std::vector<uint32_t> stack = {from};
  seen[from] = true;
  while (!stack.empty()) {
    uint32_t v = stack.back();
    stack.pop_back();
    for (uint32_t w : g.OutNeighbors(v)) {
      if (w == to) return true;
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return false;
}

/// A random topological order of `g` (Kahn with uniformly random choice
/// among ready nodes); `g` must be acyclic.
std::vector<uint32_t> RandomTopologicalOrder(const graph::Digraph& g,
                                             Rng& rng) {
  const size_t n = g.NodeCount();
  std::vector<uint32_t> in_degree(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t w : g.OutNeighbors(v)) ++in_degree[w];
  }
  std::vector<uint32_t> ready;
  for (uint32_t v = 0; v < n; ++v) {
    if (in_degree[v] == 0) ready.push_back(v);
  }
  std::vector<uint32_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    size_t pick = static_cast<size_t>(rng.UniformInt(ready.size()));
    uint32_t v = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (uint32_t w : g.OutNeighbors(v)) {
      if (--in_degree[w] == 0) ready.push_back(w);
    }
  }
  COMPTX_CHECK_EQ(order.size(), n) << "constraint graph unexpectedly cyclic";
  return order;
}

/// Attaches the built-in tables of `spec.adt` and tags every leaf with a
/// random (class, instance).  Instance numbers are partitioned per ADT so
/// leaves of different ADTs never share an instance.
Status ApplyAdtProfile(CompositeSystem& cs, const ExecutionGenSpec& spec,
                       Rng& rng) {
  std::vector<BuiltinAdt> kinds;
  switch (spec.adt) {
    case AdtMix::kNone:
      return Status::OK();
    case AdtMix::kCounter:
      kinds = {BuiltinAdt::kCounter};
      break;
    case AdtMix::kSet:
      kinds = {BuiltinAdt::kSet};
      break;
    case AdtMix::kQueue:
      kinds = {BuiltinAdt::kQueue};
      break;
    case AdtMix::kEscrow:
      kinds = {BuiltinAdt::kEscrow};
      break;
    case AdtMix::kMixed:
      kinds = {BuiltinAdt::kCounter, BuiltinAdt::kSet, BuiltinAdt::kQueue,
               BuiltinAdt::kEscrow};
      break;
  }
  CommutativitySpec built;
  std::vector<std::vector<uint32_t>> classes;
  for (BuiltinAdt kind : kinds) {
    COMPTX_ASSIGN_OR_RETURN(uint32_t adt, DeclareBuiltinAdt(built, kind));
    classes.push_back(built.adt(adt).op_classes);
  }
  cs.AttachSpec(std::move(built));
  const uint32_t instances = std::max(1u, spec.adt_instances);
  for (uint32_t v = 0; v < cs.NodeCount(); ++v) {
    const NodeId id(v);
    if (!cs.node(id).IsLeaf()) continue;
    const size_t pick =
        kinds.size() == 1 ? 0 : static_cast<size_t>(rng.UniformInt(kinds.size()));
    const std::vector<uint32_t>& cls = classes[pick];
    const uint32_t op_class = cls[rng.UniformInt(cls.size())];
    const uint32_t instance =
        static_cast<uint32_t>(pick) * instances +
        static_cast<uint32_t>(rng.UniformInt(instances));
    COMPTX_RETURN_IF_ERROR(cs.TagOperation(id, op_class, instance));
  }
  return Status::OK();
}

}  // namespace

Status PopulateExecution(CompositeSystem& cs, const ExecutionGenSpec& spec,
                         Rng& rng) {
  if (spec.order_preserving_outputs && spec.disorder_prob > 0.0) {
    return Status::InvalidArgument(
        "order_preserving_outputs requires disorder_prob == 0");
  }
  COMPTX_ASSIGN_OR_RETURN(InvocationGraphResult ig, BuildInvocationGraph(cs));
  COMPTX_RETURN_IF_ERROR(ApplyAdtProfile(cs, spec, rng));

  // Random intra-transaction orders along one permutation per transaction.
  for (uint32_t v = 0; v < cs.NodeCount(); ++v) {
    const NodeId txn(v);
    const Node& n = cs.node(txn);
    if (!n.IsTransaction() || n.children.size() < 2) continue;
    std::vector<NodeId> perm = n.children;
    rng.Shuffle(perm);
    for (size_t i = 0; i + 1 < perm.size(); ++i) {
      if (rng.Bernoulli(spec.intra_weak_prob)) {
        COMPTX_RETURN_IF_ERROR(cs.AddIntraWeak(txn, perm[i], perm[i + 1]));
        if (rng.Bernoulli(spec.intra_strong_prob)) {
          COMPTX_RETURN_IF_ERROR(
              cs.AddIntraStrong(txn, perm[i], perm[i + 1]));
        }
      }
    }
  }

  // Process schedules top-down so Def 4.7 propagation precedes the
  // callee's own linearization.
  std::vector<uint32_t> by_level(cs.ScheduleCount());
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) by_level[s] = s;
  std::sort(by_level.begin(), by_level.end(), [&](uint32_t a, uint32_t b) {
    return ig.schedule_level[a] > ig.schedule_level[b];
  });

  for (uint32_t s : by_level) {
    const ScheduleId sid(s);
    const std::vector<NodeId> ops = cs.OperationsOf(sid);
    if (ops.empty()) continue;
    NodeIndexMap index(ops);

    // Conflicts between operations of distinct transactions.  Tagged
    // pairs are decided by their instances: same instance always gets a
    // bit (the pessimistic syntactic CON a spec can then erase), distinct
    // instances never do.  Pairs with an untagged member stay random.
    for (size_t i = 0; i < ops.size(); ++i) {
      for (size_t j = i + 1; j < ops.size(); ++j) {
        const Node& na = cs.node(ops[i]);
        const Node& nb = cs.node(ops[j]);
        if (na.parent == nb.parent) continue;
        if (na.sem_class != kInvalidIndex && nb.sem_class != kInvalidIndex) {
          if (na.sem_instance == nb.sem_instance) {
            COMPTX_RETURN_IF_ERROR(cs.AddConflict(ops[i], ops[j]));
          }
        } else if (rng.Bernoulli(spec.conflict_prob)) {
          COMPTX_RETURN_IF_ERROR(cs.AddConflict(ops[i], ops[j]));
        }
      }
    }

    const Schedule& sched = cs.schedule(sid);
    Relation weak_in_closed =
        ClosureWithin(sched.weak_input, sched.transactions);
    Relation strong_in_closed =
        ClosureWithin(sched.strong_input, sched.transactions);

    // Constraints the linearization must respect: intra-transaction weak
    // orders, and all cross pairs of input-ordered transactions.
    graph::Digraph constraints(ops.size());
    for (NodeId txn : sched.transactions) {
      cs.weak_intra().ForEachFrom(
          cs.node(txn).children, [&](NodeId a, NodeId b) {
            constraints.AddEdge(index.LocalOf(a), index.LocalOf(b));
          });
    }
    weak_in_closed.ForEach([&](NodeId t1, NodeId t2) {
      for (NodeId a : cs.node(t1).children) {
        for (NodeId b : cs.node(t2).children) {
          constraints.AddEdge(index.LocalOf(a), index.LocalOf(b));
        }
      }
    });
    std::vector<uint32_t> order = RandomTopologicalOrder(constraints, rng);
    std::vector<uint32_t> position(ops.size());
    for (uint32_t i = 0; i < order.size(); ++i) position[order[i]] = i;

    // Derive the output orders.  `output_graph` tracks everything added so
    // disorder flips can be rejected when they would create a cycle.
    graph::Digraph output_graph(ops.size());
    for (NodeId txn : sched.transactions) {
      const std::vector<NodeId>& children = cs.node(txn).children;
      cs.weak_intra().ForEachFrom(children, [&](NodeId a, NodeId b) {
        COMPTX_CHECK_OK(cs.AddWeakOutput(a, b));
        output_graph.AddEdge(index.LocalOf(a), index.LocalOf(b));
      });
      cs.strong_intra().ForEachFrom(children, [&](NodeId a, NodeId b) {
        COMPTX_CHECK_OK(cs.AddStrongOutput(a, b));
        output_graph.AddEdge(index.LocalOf(a), index.LocalOf(b));
      });
    }
    strong_in_closed.ForEach([&](NodeId t1, NodeId t2) {
      for (NodeId a : cs.node(t1).children) {
        for (NodeId b : cs.node(t2).children) {
          COMPTX_CHECK_OK(cs.AddStrongOutput(a, b));
          output_graph.AddEdge(index.LocalOf(a), index.LocalOf(b));
        }
      }
    });
    // Two-phase conflict ordering: pairs keeping the temporal direction go
    // into the graph first; flips are applied afterwards, each guarded by
    // a reachability check against everything already decided, so the
    // final weak output order is guaranteed acyclic.
    std::vector<std::pair<NodeId, NodeId>> flip_candidates;
    cs.schedule(sid).conflicts.ForEach([&](NodeId a, NodeId b) {
      NodeId t1 = cs.node(a).parent;
      NodeId t2 = cs.node(b).parent;
      uint32_t la = index.LocalOf(a);
      uint32_t lb = index.LocalOf(b);
      NodeId first = position[la] < position[lb] ? a : b;
      NodeId second = first == a ? b : a;
      const bool pinned = weak_in_closed.Contains(t1, t2) ||
                          weak_in_closed.Contains(t2, t1);
      if (!pinned && rng.Bernoulli(spec.disorder_prob)) {
        flip_candidates.emplace_back(first, second);
        return;
      }
      COMPTX_CHECK_OK(cs.AddWeakOutput(first, second));
      output_graph.AddEdge(index.LocalOf(first), index.LocalOf(second));
    });
    for (const auto& [first, second] : flip_candidates) {
      NodeId from = first;
      NodeId to = second;
      if (!Reaches(output_graph, index.LocalOf(first),
                   index.LocalOf(second))) {
        std::swap(from, to);  // safe to reverse the temporal direction.
      }
      COMPTX_CHECK_OK(cs.AddWeakOutput(from, to));
      output_graph.AddEdge(index.LocalOf(from), index.LocalOf(to));
    }

    if (spec.order_preserving_outputs) {
      // An order-preserving scheduler reports its full linearization.
      for (size_t i = 0; i + 1 < order.size(); ++i) {
        COMPTX_CHECK_OK(cs.AddWeakOutput(index.GlobalOf(order[i]),
                                         index.GlobalOf(order[i + 1])));
      }
    }

    // Def 4.7: pass the (closed) output orders on as input orders of the
    // callees.
    Relation weak_out_closed = ClosureWithin(cs.schedule(sid).weak_output,
                                             ops);
    Relation strong_out_closed =
        ClosureWithin(cs.schedule(sid).strong_output, ops);
    auto propagate = [&](const Relation& rel, bool is_strong) -> Status {
      Status status = Status::OK();
      rel.ForEach([&](NodeId a, NodeId b) {
        if (!status.ok()) return;
        const Node& na = cs.node(a);
        const Node& nb = cs.node(b);
        if (!na.IsTransaction() || !nb.IsTransaction()) return;
        if (na.owner_schedule != nb.owner_schedule) return;
        status = is_strong ? cs.AddStrongInput(na.owner_schedule, a, b)
                           : cs.AddWeakInput(na.owner_schedule, a, b);
      });
      return status;
    };
    COMPTX_RETURN_IF_ERROR(propagate(weak_out_closed, /*is_strong=*/false));
    COMPTX_RETURN_IF_ERROR(propagate(strong_out_closed, /*is_strong=*/true));
  }
  return Status::OK();
}

}  // namespace comptx::workload
