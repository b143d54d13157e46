// Robustness fuzzing: random raw mutations of valid systems must never
// crash the validator or the checker — every malformed structure is
// either caught by Validate() or handled gracefully by the reduction.
// Also cross-checks the graph substrate's algorithms against each other
// on random graphs.

#include <gtest/gtest.h>

#include "analysis/sweep.h"
#include "core/correctness.h"
#include "core/diagnostic.h"
#include "core/validate.h"
#include "graph/cycle_finder.h"
#include "graph/tarjan_scc.h"
#include "graph/topological_sort.h"
#include "graph/transitive_closure.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace comptx {
namespace {

/// Applies one random raw mutation (bypassing the typed mutators) to a
/// valid system.
void MutateOnce(CompositeSystem& cs, Rng& rng) {
  const uint32_t node_count = static_cast<uint32_t>(cs.NodeCount());
  const uint32_t schedule_count = static_cast<uint32_t>(cs.ScheduleCount());
  if (node_count < 2 || schedule_count == 0) return;
  NodeId a(static_cast<uint32_t>(rng.UniformInt(node_count)));
  NodeId b(static_cast<uint32_t>(rng.UniformInt(node_count)));
  if (a == b) return;
  ScheduleId s(static_cast<uint32_t>(rng.UniformInt(schedule_count)));
  switch (rng.UniformInt(6)) {
    case 0:
      cs.mutable_schedule(s).weak_output.Add(a, b);
      break;
    case 1:
      cs.mutable_schedule(s).strong_output.Add(a, b);
      break;
    case 2:
      cs.mutable_schedule(s).weak_input.Add(a, b);
      break;
    case 3:
      cs.mutable_schedule(s).conflicts.Add(a, b);
      break;
    // Raw intra pairs between any two nodes: sourced at a root, a leaf or
    // an internal node, between siblings or not.
    case 4:
      cs.mutable_weak_intra().Add(b, a);
      break;
    case 5:
      cs.mutable_strong_intra().Add(a, b);
      break;
  }
}

TEST(FuzzValidationTest, MutatedSystemsNeverCrash) {
  // Generate + mutate all 60 systems first, then fan the independent
  // validate/check passes out through the sweep helper (the same path the
  // multi-trace drivers use), asserting on the collected outcomes.
  struct Outcome {
    bool valid = false;
    bool check_ok = false;
    bool reduction_ok = false;
    std::string message;
  };
  std::vector<CompositeSystem> systems;
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kLayeredDag;
  spec.topology.depth = 3;
  spec.topology.branches = 2;
  spec.topology.roots = 3;
  spec.execution.conflict_prob = 0.2;
  const std::string generator = workload::DescribeWorkloadSpec(spec);
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    auto cs = workload::GenerateSystem(spec, seed);
    ASSERT_TRUE(cs.ok()) << "seed " << seed << " (" << generator
                         << "): " << cs.status().ToString();
    Rng rng(seed * 7919);
    const uint32_t mutations = 1 + uint32_t(rng.UniformInt(5));
    for (uint32_t m = 0; m < mutations; ++m) MutateOnce(*cs, rng);
    systems.push_back(*std::move(cs));
  }
  const std::vector<Outcome> outcomes =
      analysis::ParallelMap<Outcome>(systems.size(), [&](size_t i) {
        Outcome out;
        Status valid = systems[i].Validate();
        out.valid = valid.ok();
        out.message = valid.message();
        if (out.valid) {
          // A mutated-but-valid system must be checkable without crashing.
          out.check_ok = CheckCompC(systems[i]).ok();
        }
        out.reduction_ok = RunReduction(systems[i]).ok();
        return out;
      });
  int still_valid = 0;
  int rejected = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& out = outcomes[i];
    // Everything needed to regenerate the failing input: the generator
    // seed, its parameters, and the mutation rng seed.
    const std::string repro =
        StrCat("seed ", i + 1, " mutation_rng_seed ", (i + 1) * 7919, " (",
               generator, ")");
    if (out.valid) {
      ++still_valid;
      EXPECT_TRUE(out.check_ok) << repro;
    } else {
      ++rejected;
      EXPECT_FALSE(out.message.empty()) << repro;
      // The reduction driver must surface the same rejection as a Status.
      EXPECT_FALSE(out.reduction_ok) << repro << ": " << out.message;
    }
  }
  // The mutation set must exercise both outcomes to mean anything.
  EXPECT_GT(still_valid, 0);
  EXPECT_GT(rejected, 0);
}

/// A valid two-level system with every order kind MutateOnce touches:
/// R orders u1 before u2 (conflicting) and v1 before u1 (T1's intra
/// order), S gets u1 before u2 as input (Def 4.7) and orders the
/// conflicting leaves x1, x2 the same way; w2 is ordered with nothing.
constexpr char kEveryOrderKind[] =
    "comptx-trace v1\n"
    "schedule R\nschedule S\n"
    "root 0 T1\nsub 0 1 u1\nleaf 0 v1\nleaf 1 x1\n"
    "root 0 T2\nsub 4 1 u2\nleaf 5 x2\nleaf 4 w2\n"
    "conflict 1 5\nweak_out 1 5\nweak_out 2 1\nweak_in 1 1 5\n"
    "conflict 3 6\nweak_out 3 6\nintra_weak 0 2 1\nend\n";
constexpr ScheduleId kR(0), kS(1);
constexpr NodeId kU1(1), kV1(2), kU2(5), kW2(7);

/// One ill-formed pair of each kind MutateOnce injects, each into a fresh
/// copy of a valid system: Validate must reject it, and the first error
/// must carry that kind's diagnostic code (a rejection for some other
/// reason would not show that the kind is caught).
TEST(FuzzValidationTest, EachMutationKindIsRejectedWithItsCode) {
  struct Case {
    const char* kind;
    DiagCode expected;
    void (*inject)(CompositeSystem&);
  };
  const Case cases[] = {
      {"weak_output: u2 before u1 against u1 before u2",
       DiagCode::kCyclicOutputOrder,
       [](CompositeSystem& cs) {
         cs.mutable_schedule(kR).weak_output.Add(kU2, kU1);
       }},
      {"strong_output: u2 before u1, outside the weak output order",
       DiagCode::kStrongOutputNotInWeak,
       [](CompositeSystem& cs) {
         cs.mutable_schedule(kR).strong_output.Add(kU2, kU1);
       }},
      {"weak_input: u2 before u1 against u1 before u2",
       DiagCode::kCyclicInputOrder,
       [](CompositeSystem& cs) {
         cs.mutable_schedule(kS).weak_input.Add(kU2, kU1);
       }},
      {"conflicts: v1 and w2 of distinct transactions, unordered",
       DiagCode::kConflictUnordered,
       [](CompositeSystem& cs) {
         cs.mutable_schedule(kR).conflicts.Add(kV1, kW2);
       }},
      {"weak intra: u1 before v1 against v1 before u1",
       DiagCode::kCyclicIntraOrder,
       [](CompositeSystem& cs) { cs.mutable_weak_intra().Add(kU1, kV1); }},
      {"strong intra: u1 before v1, outside the weak intra order",
       DiagCode::kStrongIntraNotInWeak,
       [](CompositeSystem& cs) { cs.mutable_strong_intra().Add(kU1, kV1); }},
  };
  for (const Case& c : cases) {
    auto cs = workload::LoadTrace(kEveryOrderKind);
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    ASSERT_TRUE(cs->Validate().ok()) << cs->Validate().ToString();
    c.inject(*cs);
    const Status status = cs->Validate();
    ASSERT_FALSE(status.ok()) << c.kind;
    const std::vector<Diagnostic> diags = CollectModelDiagnostics(*cs);
    ASSERT_FALSE(diags.empty()) << c.kind;
    EXPECT_EQ(DiagCodeName(diags.front().code), DiagCodeName(c.expected))
        << c.kind << ": " << diags.front().message;
    EXPECT_EQ(status.message(), diags.front().message) << c.kind;
  }
}

TEST(FuzzGraphTest, SccAgreesWithClosure) {
  constexpr uint64_t kRngSeed = 99;
  Rng rng(kRngSeed);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 2 + rng.UniformInt(25);
    graph::Digraph g(n);
    const size_t edges = rng.UniformInt(3 * n + 1);
    for (size_t e = 0; e < edges; ++e) {
      g.AddEdge(uint32_t(rng.UniformInt(n)), uint32_t(rng.UniformInt(n)));
    }
    graph::SccResult scc = graph::TarjanScc(g);
    graph::TransitiveClosure closure(g);
    for (uint32_t u = 0; u < n; ++u) {
      for (uint32_t v = 0; v < n; ++v) {
        if (u == v) continue;
        const bool same_component =
            scc.component_of[u] == scc.component_of[v];
        const bool mutual = closure.Reaches(u, v) && closure.Reaches(v, u);
        EXPECT_EQ(same_component, mutual)
            << "rng_seed " << kRngSeed << " trial " << trial << " (n=" << n
            << " edges=" << edges << ") nodes " << u << "," << v;
      }
    }
  }
}

TEST(FuzzGraphTest, TopologicalSortValidOrCycleExists) {
  constexpr uint64_t kRngSeed = 123;
  Rng rng(kRngSeed);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + rng.UniformInt(30);
    graph::Digraph g(n);
    const size_t edges = rng.UniformInt(2 * n + 1);
    for (size_t e = 0; e < edges; ++e) {
      g.AddEdge(uint32_t(rng.UniformInt(n)), uint32_t(rng.UniformInt(n)));
    }
    const std::string repro = StrCat("rng_seed ", kRngSeed, " trial ", trial,
                                     " (n=", n, " edges=", edges, ")");
    auto order = graph::TopologicalSort(g);
    auto cycle = graph::FindCycle(g);
    EXPECT_EQ(order.ok(), !cycle.has_value()) << repro;
    if (order.ok()) {
      std::vector<size_t> pos(n);
      for (size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
      for (uint32_t v = 0; v < n; ++v) {
        for (uint32_t w : g.OutNeighbors(v)) {
          if (v != w) EXPECT_LT(pos[v], pos[w]) << repro;
        }
      }
    } else {
      // The cycle witness must consist of real edges.
      for (size_t i = 0; i < cycle->size(); ++i) {
        EXPECT_TRUE(
            g.HasEdge((*cycle)[i], (*cycle)[(i + 1) % cycle->size()]))
            << repro << " cycle position " << i;
      }
    }
  }
}

TEST(FuzzTraceTest, LoadNeverCrashesOnCorruptedTraces) {
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kStack;
  auto cs = workload::GenerateSystem(spec, 5);
  ASSERT_TRUE(cs.ok()) << "seed 5 (" << workload::DescribeWorkloadSpec(spec)
                       << "): " << cs.status().ToString();
  auto text = workload::SaveTrace(*cs);
  ASSERT_TRUE(text.ok()) << "seed 5 (" << workload::DescribeWorkloadSpec(spec)
                         << "): " << text.status().ToString();
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    std::string corrupted = *text;
    // Flip a handful of random characters.
    for (int k = 0; k < 5; ++k) {
      size_t pos = size_t(rng.UniformInt(corrupted.size()));
      corrupted[pos] = char('0' + rng.UniformInt(75));
    }
    auto loaded = workload::LoadTrace(corrupted);
    if (loaded.ok()) {
      // A still-parsable trace must yield a usable system.
      (void)loaded->Validate();
    }
  }
}

}  // namespace
}  // namespace comptx
