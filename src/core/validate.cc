#include "core/validate.h"

#include <string>
#include <utility>
#include <vector>

#include "core/composite_system.h"
#include "core/indexing.h"
#include "core/invocation_graph.h"
#include "graph/cycle_finder.h"
#include "util/string_util.h"

namespace comptx {

namespace {

/// Appends a cyclicity diagnostic when `rel`, restricted to `domain`, is
/// not a strict partial order after closure.
void CheckPartialOrder(const Relation& rel, const std::vector<NodeId>& domain,
                       const std::string& what, DiagCode code,
                       const std::string& location,
                       std::vector<Diagnostic>& out) {
  NodeIndexMap index(domain);
  graph::Digraph g = RelationToDigraph(rel, index);
  if (auto cycle = graph::FindCycle(g)) {
    out.push_back({DiagSeverity::kError, code, location, 0,
                   StrCat(what, " is cyclic (", cycle->size(),
                          "-node cycle)"),
                   "remove one edge of the cycle"});
  }
}

}  // namespace

std::vector<Diagnostic> CollectModelDiagnostics(const CompositeSystem& cs) {
  std::vector<Diagnostic> diags;

  // Recursion freedom (Def 4.6): the invocation graph must be acyclic.
  if (auto ig = BuildInvocationGraph(cs); !ig.ok()) {
    diags.push_back({DiagSeverity::kError, DiagCode::kRecursion,
                     "invocation graph", 0, ig.status().message(),
                     "break the schedule invocation cycle (Def 4.6 forbids "
                     "recursion)"});
  }

  // Def 2: every intra pair orders two distinct operations of one
  // transaction, its source's parent (only raw injection breaks this).
  bool siblings = true;
  for (const Relation* intra : {&cs.weak_intra(), &cs.strong_intra()}) {
    intra->ForEach([&](NodeId a, NodeId b) {
      siblings = siblings && a != b && cs.HasNode(a) && cs.HasNode(b) &&
                 cs.node(a).parent.valid() &&
                 cs.node(a).parent == cs.node(b).parent;
    });
  }
  if (!siblings) {
    diags.push_back({DiagSeverity::kError, DiagCode::kIntraOrderNotHonored,
                     "intra orders", 0,
                     "an intra order pair is not two sibling operations",
                     "order siblings only (Def 2)"});
  }

  // Per transaction, the rows of its children: partial orders with
  // strong ⊆ weak.
  for (size_t ni = 0; ni < cs.NodeCount(); ++ni) {
    const Node& n = cs.node(NodeId(static_cast<uint32_t>(ni)));
    if (!n.IsTransaction()) continue;
    const std::string location = StrCat("transaction ", n.name);
    CheckPartialOrder(cs.weak_intra(), n.children,
                      StrCat("weak intra order of ", n.name),
                      DiagCode::kCyclicIntraOrder, location, diags);
    Relation weak_closed = ClosureWithin(cs.weak_intra(), n.children);
    bool strong_in_weak = true;
    cs.strong_intra().ForEachFrom(n.children, [&](NodeId a, NodeId b) {
      if (!weak_closed.Contains(a, b)) strong_in_weak = false;
    });
    if (!strong_in_weak) {
      diags.push_back(
          {DiagSeverity::kError, DiagCode::kStrongIntraNotInWeak, location, 0,
           StrCat("transaction ", n.name,
                  ": strong intra order not contained in weak intra order"),
           "add the strong pair to the weak intra order too"});
    }
  }

  // Input orders closed within T_S, once per schedule: Defs 3.1-3.3 read a
  // schedule's own, Def 4.7 a callee's.
  std::vector<Relation> weak_in(cs.ScheduleCount());
  std::vector<Relation> strong_in(cs.ScheduleCount());
  for (size_t si = 0; si < cs.ScheduleCount(); ++si) {
    const Schedule& s = cs.schedule(ScheduleId(static_cast<uint32_t>(si)));
    weak_in[si] = ClosureWithin(s.weak_input, s.transactions);
    strong_in[si] = ClosureWithin(s.strong_input, s.transactions);
  }

  for (size_t si = 0; si < cs.ScheduleCount(); ++si) {
    const Schedule& s = cs.schedule(ScheduleId(static_cast<uint32_t>(si)));
    const std::vector<NodeId> ops = cs.OperationsOf(s.id);
    const std::string location = StrCat("schedule ", s.name);

    // Input orders are partial orders over T_S with strong ⊆ weak.
    CheckPartialOrder(s.weak_input, s.transactions,
                      StrCat("weak input order of schedule ", s.name),
                      DiagCode::kCyclicInputOrder, location, diags);
    if (!weak_in[si].ContainsAllOf(s.strong_input)) {
      diags.push_back(
          {DiagSeverity::kError, DiagCode::kStrongInputNotInWeak, location, 0,
           StrCat("schedule ", s.name,
                  ": strong input order not contained in weak input order"),
           "add the strong pair to the weak input order too"});
    }

    // Output orders are partial orders over O_S; Def 3.4: strong ⊆ weak.
    CheckPartialOrder(s.weak_output, ops,
                      StrCat("weak output order of schedule ", s.name),
                      DiagCode::kCyclicOutputOrder, location, diags);
    Relation weak_out_closed = ClosureWithin(s.weak_output, ops);
    Relation strong_out_closed = ClosureWithin(s.strong_output, ops);
    if (!weak_out_closed.ContainsAllOf(s.strong_output)) {
      diags.push_back(
          {DiagSeverity::kError, DiagCode::kStrongOutputNotInWeak, location,
           0,
           StrCat("schedule ", s.name,
                  ": strong output order not contained in weak output order"),
           "add the strong pair to the weak output order too"});
    }

    // Def 3.1: conflicting operations of distinct transactions must be
    // weak-output-ordered, and consistently with the weak input order.
    s.conflicts.ForEach([&](NodeId o1, NodeId o2) {
      NodeId t1 = cs.node(o1).parent;
      NodeId t2 = cs.node(o2).parent;
      if (t1 == t2) return;  // Def 3.1 quantifies over distinct transactions.
      bool fwd = weak_out_closed.Contains(o1, o2);
      bool bwd = weak_out_closed.Contains(o2, o1);
      if (fwd && bwd) {
        diags.push_back(
            {DiagSeverity::kError, DiagCode::kConflictOrderedBothWays,
             location, 0,
             StrCat("schedule ", s.name, ": conflicting ops ",
                    cs.node(o1).name, ", ", cs.node(o2).name,
                    " ordered both ways"),
             "drop one direction from the weak output order"});
        return;
      }
      if (!fwd && !bwd) {
        diags.push_back(
            {DiagSeverity::kError, DiagCode::kConflictUnordered, location, 0,
             StrCat("schedule ", s.name, ": conflicting ops ",
                    cs.node(o1).name, ", ", cs.node(o2).name,
                    " left unordered (Def 3.1c)"),
             StrCat("add a weak_out edge between ", cs.node(o1).name,
                    " and ", cs.node(o2).name)});
        return;
      }
      if (weak_in[si].Contains(t1, t2) && bwd) {
        diags.push_back(
            {DiagSeverity::kError, DiagCode::kConflictAgainstInput, location,
             0,
             StrCat("schedule ", s.name, ": conflicting ops of ",
                    cs.node(t1).name, " -> ", cs.node(t2).name,
                    " ordered against the weak input order"),
             "flip the weak output order of the conflicting pair"});
        return;
      }
      if (weak_in[si].Contains(t2, t1) && fwd) {
        diags.push_back(
            {DiagSeverity::kError, DiagCode::kConflictAgainstInput, location,
             0,
             StrCat("schedule ", s.name, ": conflicting ops of ",
                    cs.node(t2).name, " -> ", cs.node(t1).name,
                    " ordered against the weak input order"),
             "flip the weak output order of the conflicting pair"});
      }
    });

    // Def 3.2: intra-transaction orders are honored by the output orders.
    for (NodeId txn : s.transactions) {
      const Node& t = cs.node(txn);
      bool ok = true;
      cs.weak_intra().ForEachFrom(t.children, [&](NodeId a, NodeId b) {
        ok = ok && weak_out_closed.Contains(a, b);
      });
      cs.strong_intra().ForEachFrom(t.children, [&](NodeId a, NodeId b) {
        ok = ok && strong_out_closed.Contains(a, b);
      });
      if (!ok) {
        diags.push_back(
            {DiagSeverity::kError, DiagCode::kIntraOrderNotHonored, location,
             0,
             StrCat("schedule ", s.name, ": output orders do not honor the ",
                    "intra-transaction orders of ", t.name, " (Def 3.2)"),
             StrCat("emit the intra order of ", t.name,
                    " into the output orders")});
      }
    }

    // Def 3.3: strong input order forces all operation pairs to be
    // strongly ordered in the output.
    strong_in[si].ForEach([&](NodeId t1, NodeId t2) {
      for (NodeId o1 : cs.node(t1).children) {
        for (NodeId o2 : cs.node(t2).children) {
          if (!strong_out_closed.Contains(o1, o2)) {
            diags.push_back(
                {DiagSeverity::kError, DiagCode::kStrongInputNotReflected,
                 location, 0,
                 StrCat("schedule ", s.name, ": strong input ",
                        cs.node(t1).name, " => ", cs.node(t2).name,
                        " not reflected by strong output over ops ",
                        cs.node(o1).name, ", ", cs.node(o2).name,
                        " (Def 3.3)"),
                 StrCat("add strong_out ", cs.node(o1).name, " -> ",
                        cs.node(o2).name)});
            return;
          }
        }
      }
    });

    // Def 4.7: output orders over operations that are transactions of one
    // common schedule must be passed on as that schedule's input orders.
    auto check_propagation = [&](const Relation& out_closed, bool strong) {
      out_closed.ForEach([&](NodeId a, NodeId b) {
        const Node& na = cs.node(a);
        const Node& nb = cs.node(b);
        if (!na.IsTransaction() || !nb.IsTransaction()) return;
        if (na.owner_schedule != nb.owner_schedule) return;
        const Schedule& callee = cs.schedule(na.owner_schedule);
        if (!(strong ? strong_in : weak_in)[callee.id.index()].Contains(a, b)) {
          diags.push_back(
              {DiagSeverity::kError, DiagCode::kOutputNotPropagated, location,
               0,
               StrCat("schedule ", s.name, ": ",
                      (strong ? "strong" : "weak"), " output order ", na.name,
                      " -> ", nb.name,
                      " not propagated as input order of schedule ",
                      callee.name, " (Def 4.7)"),
               StrCat("add ", (strong ? "strong_in " : "weak_in "),
                      callee.name, " ", na.name, " -> ", nb.name)});
        }
      });
    };
    check_propagation(weak_out_closed, /*strong=*/false);
    check_propagation(strong_out_closed, /*strong=*/true);
  }

  return diags;
}

Status CompositeSystem::Validate() const {
  // Thin compatibility wrapper over CollectModelDiagnostics: legacy
  // callers get the first violation as a flat Status; new callers use the
  // diagnostic collection to see every violation at once.
  COMPTX_RETURN_IF_ERROR(RequireWholeForest());
  for (const Diagnostic& d : CollectModelDiagnostics(*this)) {
    if (d.severity == DiagSeverity::kError) {
      return Status::FailedPrecondition(d.message);
    }
  }
  return Status::OK();
}

}  // namespace comptx
