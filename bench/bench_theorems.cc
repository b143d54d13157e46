// Experiments E1-E3 (DESIGN.md): machine-checked Theorems 2-4.
//
// For each special configuration (stack, fork, join) and a sweep of
// workload parameters, generate valid random executions and compare the
// special-case criterion (SCC / FCC / JCC) with the general Comp-C
// decision procedure.  The paper proves the agreement must be exact: each
// row counts its disagreements as mismatches (expected: 0 everywhere) and
// reports the acceptance rate, so the sweep is visibly exercising both
// accepted and rejected executions.
//
// Usage: bench_theorems [output.json]   (default BENCH_theorems.json)

#include <vector>

#include "analysis/stats.h"
#include "core/correctness.h"
#include "criteria/fcc.h"
#include "criteria/jcc.h"
#include "criteria/scc.h"
#include "harness.h"
#include "util/logging.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT

struct SweepResult {
  analysis::RateCounter agreement;
  analysis::RateCounter acceptance;
};

SweepResult Sweep(workload::TopologyKind kind, double conflict,
                  double disorder, int trials) {
  SweepResult out;
  for (int seed = 1; seed <= trials; ++seed) {
    workload::WorkloadSpec spec;
    spec.topology.kind = kind;
    spec.topology.depth = 3;
    spec.topology.branches = 3;
    spec.topology.roots = 4;
    spec.topology.fanout = 2;
    spec.execution.conflict_prob = conflict;
    spec.execution.disorder_prob = disorder;
    auto cs = workload::GenerateSystem(spec, uint64_t(seed));
    COMPTX_CHECK(cs.ok()) << cs.status().ToString();
    bool special = false;
    switch (kind) {
      case workload::TopologyKind::kStack: {
        auto verdict = criteria::IsStackConflictConsistent(*cs);
        COMPTX_CHECK(verdict.ok());
        special = *verdict;
        break;
      }
      case workload::TopologyKind::kFork: {
        auto verdict = criteria::IsForkConflictConsistent(*cs);
        COMPTX_CHECK(verdict.ok());
        special = *verdict;
        break;
      }
      case workload::TopologyKind::kJoin: {
        auto verdict = criteria::IsJoinConflictConsistent(*cs);
        COMPTX_CHECK(verdict.ok());
        special = *verdict;
        break;
      }
      default:
        COMPTX_CHECK(false);
    }
    const bool comp_c = IsCompC(*cs);
    out.agreement.Add(special == comp_c);
    out.acceptance.Add(comp_c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  constexpr int kTrials = 200;
  struct Row {
    const char* experiment;
    workload::TopologyKind kind;
    const char* theorem;
  };
  const Row rows[] = {
      {"E1", workload::TopologyKind::kStack, "Thm 2: SCC <=> Comp-C"},
      {"E2", workload::TopologyKind::kFork, "Thm 3: FCC <=> Comp-C"},
      {"E3", workload::TopologyKind::kJoin, "Thm 4: JCC <=> Comp-C"},
  };
  std::vector<bench::Json> cells;
  for (const Row& row : rows) {
    for (double conflict : {0.1, 0.4, 0.8}) {
      for (double disorder : {0.0, 0.5}) {
        const SweepResult result =
            Sweep(row.kind, conflict, disorder, kTrials);
        bench::AddRow(
            cells,
            bench::Json()
                .Set("experiment", row.experiment)
                .Set("theorem", row.theorem)
                .Set("topology", workload::TopologyKindToString(row.kind))
                .Set("conflict", conflict)
                .Set("disorder", disorder)
                .Set("trials", kTrials)
                .Set("acceptance", result.acceptance.rate())
                .Mismatches(result.agreement.total() -
                            result.agreement.accepted()));
      }
    }
  }
  return bench::WriteReport(run_start,
                            argc > 1 ? argv[1] : "BENCH_theorems.json",
                            "E1-E3_theorem_validation",
                            bench::Json().Set("rows", cells));
}
