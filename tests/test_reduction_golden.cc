// Golden digest of the batch reducer's output on a fixed generated corpus.
// Every verdict, failure, witness, serial order and kept front of about
// 240 systems is folded into one FNV-1a hash, and the hash is pinned to
// the value the reducer produced before its allocation-lean rewrite (one
// closure per order kind, lean graphs, no per-level front copies).  Any
// change that moves a single witness node or serial position changes it.
//
// The corpus covers the stack, fork, join, layered-DAG and shared-bottom
// topologies, weak and strong intra orders, and a sparse conflict profile
// from order-preserving schedulers and a dense one with injected disorder,
// so Comp-C systems and level-0, calculation and higher-level CC failures
// all occur; a probe per system makes the calculation check fail inside
// a transaction too (FoldIntraProbe).  Every fourth system also gets
// pairs that leave their container — an input pair across schedules, an
// output pair across hosts, an intra pair across parents — and is reduced
// unvalidated, where such pairs must be dropped exactly as a closure
// within the container drops them.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/calculation.h"
#include "core/correctness.h"
#include "core/invocation_graph.h"
#include "core/observed_order.h"
#include "workload/workload_spec.h"

namespace comptx {
namespace {

/// 64-bit FNV-1a over the bytes of the values folded in.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  void Add(const std::vector<NodeId>& ids) {
    Add(ids.size());
    for (NodeId id : ids) Add(id.index());
  }
  void Add(const Relation& r) {
    Add(r.PairCount());
    r.ForEach([&](NodeId a, NodeId b) {
      Add(a.index());
      Add(b.index());
    });
  }
  void Add(const Front& f) {
    Add(f.level);
    Add(f.nodes);
    Add(f.observed);
    Add(f.conflicts.PairCount());
    f.conflicts.ForEach([&](NodeId a, NodeId b) {
      Add(a.index());
      Add(b.index());
    });
    Add(f.weak_input);
    Add(f.strong_input);
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Adds one pair per order kind that leaves its container, where the
/// system has one: the first root against a subtransaction of another
/// schedule (input), the root's first operation against an operation
/// hosted elsewhere (output), and the first and last leaves, which have
/// different parents but share the level-0 front (intra).
void AddOutOfContainerPairs(CompositeSystem& cs) {
  std::vector<NodeId> roots;
  std::vector<NodeId> nested;  // transactions with a parent
  const std::vector<NodeId> leaves = cs.Leaves();
  for (uint32_t v = 0; v < cs.NodeCount(); ++v) {
    const Node& n = cs.node(NodeId(v));
    if (n.IsRoot()) roots.push_back(n.id);
    if (n.IsTransaction() && n.parent.valid()) nested.push_back(n.id);
  }
  if (roots.empty() || leaves.empty()) return;
  const Node& root = cs.node(roots.front());
  const NodeId op = root.children.front();
  for (NodeId sub : nested) {
    if (cs.node(sub).owner_schedule == root.owner_schedule) continue;
    cs.mutable_schedule(root.owner_schedule).weak_input.Add(root.id, sub);
    break;
  }
  for (NodeId sub : nested) {
    if (cs.node(sub).host == cs.node(op).host) continue;
    cs.mutable_schedule(cs.node(op).host).weak_output.Add(op, sub);
    break;
  }
  if (cs.node(leaves.front()).parent != cs.node(leaves.back()).parent) {
    cs.mutable_weak_intra().Add(leaves.front(), leaves.back());
  }
}

/// Probes the intra-transaction half of Def 14's calculation check,
/// which generated executions never fail (their intra orders agree with
/// their output orders): in the second and fourth level-1 transactions
/// with two or more operations, the first two operations are made to
/// conflict, ordered by an intra order, and observed the other way on the
/// level-0 front.  The check must report the same first violating
/// transaction with the same cycle.  Returns true iff it reports one
/// within a transaction.
bool FoldIntraProbe(const CompositeSystem& generated, Fnv& h) {
  CompositeSystem cs = generated.Clone();
  auto ig = BuildInvocationGraph(cs);
  EXPECT_TRUE(ig.ok());
  if (!ig.ok()) return false;
  std::vector<NodeId> groups;
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    if (ig->schedule_level[s] != 1) continue;
    const Schedule& sched = cs.schedule(ScheduleId(s));
    groups.insert(groups.end(), sched.transactions.begin(),
                  sched.transactions.end());
  }
  std::vector<std::pair<NodeId, NodeId>> observed;
  int eligible = 0;
  for (NodeId txn : groups) {
    const std::vector<NodeId>& ops = cs.node(txn).children;
    if (ops.size() < 2) continue;
    if (++eligible != 2 && eligible != 4) continue;
    EXPECT_TRUE(cs.AddConflict(ops[0], ops[1]).ok());
    cs.mutable_weak_intra().Add(ops[0], ops[1]);
    observed.emplace_back(ops[1], ops[0]);
  }
  const SystemContext ctx(cs);
  Front front = MakeLevelZeroFront(ctx);
  for (const auto& [a, b] : observed) front.observed.Add(a, b);
  const auto violation = FindCalculationViolation(ctx, front, groups);
  h.Add(violation.has_value() ? 1 : 0);
  if (!violation.has_value()) return false;
  h.Add(violation->description);
  h.Add(violation->nodes);
  return violation->description.find("for transaction") != std::string::npos;
}

void FoldVerdict(const CompCResult& r, Fnv& h) {
  h.Add(r.correct ? 1 : 0);
  h.Add(r.order);
  h.Add(r.serial_order);
  h.Add(r.failure.has_value() ? 1 : 0);
  if (r.failure.has_value()) {
    h.Add(r.failure->level);
    h.Add(static_cast<uint64_t>(r.failure->step));
    h.Add(r.failure->witness.description);
    h.Add(r.failure->witness.nodes);
  }
  h.Add(r.reduction.fronts.size());
  for (const Front& f : r.reduction.fronts) h.Add(f);
}

struct Corpus {
  uint64_t digest = 0;
  int systems = 0;
  int comp_c = 0;
  int level0_failures = 0;
  int calculation_failures = 0;
  int intra_probe_failures = 0;
  int higher_cc_failures = 0;
};

Corpus ReduceCorpus() {
  using workload::TopologyKind;
  const TopologyKind kinds[] = {TopologyKind::kStack, TopologyKind::kFork,
                                TopologyKind::kJoin, TopologyKind::kLayeredDag,
                                TopologyKind::kSharedBottom};
  Corpus out;
  Fnv h;
  for (TopologyKind kind : kinds) {
    for (int dense = 0; dense < 2; ++dense) {
      for (uint64_t seed = 1; seed <= 24; ++seed) {
        workload::WorkloadSpec spec;
        spec.topology.kind = kind;
        spec.topology.depth = 3;
        spec.topology.branches = 2;
        spec.topology.roots = 3 + static_cast<uint32_t>(seed % 4);
        spec.topology.fanout = 2 + static_cast<uint32_t>(seed % 2);
        spec.execution.intra_weak_prob = 0.3;
        spec.execution.intra_strong_prob = 0.15;
        if (dense != 0) {
          spec.execution.conflict_prob = 0.25;
          spec.execution.disorder_prob = 0.4;
        } else {
          spec.execution.conflict_prob = 0.04;
          spec.execution.order_preserving_outputs = true;
        }
        auto cs = workload::GenerateSystem(spec, 1000 * seed + 17);
        EXPECT_TRUE(cs.ok()) << cs.status().ToString();
        if (!cs.ok()) continue;
        const bool leaky = seed % 4 == 0;
        if (leaky) AddOutOfContainerPairs(*cs);

        ReductionOptions lean;
        lean.validate = false;
        lean.keep_fronts = false;
        auto lean_result = CheckCompC(*cs, lean);
        EXPECT_TRUE(lean_result.ok()) << lean_result.status().ToString();
        if (!lean_result.ok()) continue;
        FoldVerdict(*lean_result, h);

        ReductionOptions full;
        full.validate = !leaky;
        auto full_result = CheckCompC(*cs, full);
        EXPECT_TRUE(full_result.ok()) << full_result.status().ToString();
        if (!full_result.ok()) continue;
        FoldVerdict(*full_result, h);

        if (FoldIntraProbe(*cs, h)) ++out.intra_probe_failures;
        ++out.systems;
        const CompCResult& r = *lean_result;
        if (r.correct) {
          ++out.comp_c;
        } else if (r.failure->step == ReductionFailureStep::kCalculation) {
          ++out.calculation_failures;
        } else if (r.failure->level == 0) {
          ++out.level0_failures;
        } else {
          ++out.higher_cc_failures;
        }
      }
    }
  }
  out.digest = h.value();
  return out;
}

TEST(ReductionGolden, VerdictsWitnessesAndSerialOrdersMatchTheParent) {
  const Corpus corpus = ReduceCorpus();
  std::printf(
      "%d systems: %d Comp-C, %d level-0 CC, %d calculation, %d higher CC "
      "failures; %d intra probes failed within a transaction; digest "
      "0x%016llx\n",
      corpus.systems, corpus.comp_c, corpus.level0_failures,
      corpus.calculation_failures, corpus.higher_cc_failures,
      corpus.intra_probe_failures,
      static_cast<unsigned long long>(corpus.digest));
  EXPECT_EQ(corpus.systems, 240);
  // Every outcome the digest is meant to pin occurs in the corpus.
  EXPECT_GT(corpus.comp_c, 0);
  EXPECT_GT(corpus.level0_failures, 0);
  EXPECT_GT(corpus.calculation_failures, 0);
  EXPECT_GT(corpus.intra_probe_failures, 0);
  EXPECT_GT(corpus.higher_cc_failures, 0);
  // Captured by building this file against the library at 21914bd.
  EXPECT_EQ(corpus.digest, 0xc64ef08fdfa472f5ULL);
}

}  // namespace
}  // namespace comptx
