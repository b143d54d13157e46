// Experiment E8 (DESIGN.md): the forgetting ablation.
//
// The distinctive rule of the paper's observed order (Def 10.3): an order
// pulled up to a pair of operations whose common schedule declares them
// non-conflicting is dropped.  This bench measures what that rule buys:
// Comp-C acceptance with forgetting on vs. off (the "off" variant is
// conventional multilevel pull-everything-up semantics), plus the
// independent hierarchical oracle as the semantic upper bound.
//
// Expected shape: forgetting strictly increases acceptance at every
// contention level, approaching the oracle; with forgetting off, Comp-C
// collapses towards LLSR.  Forgetting may only widen acceptance, and
// Comp-C must stay sound against the oracle: each violation of either is
// a mismatch.
//
// Usage: bench_forgetting [output.json]   (default BENCH_forgetting.json)

#include <vector>

#include "analysis/stats.h"
#include "core/correctness.h"
#include "criteria/llsr.h"
#include "criteria/oracle.h"
#include "harness.h"
#include "util/logging.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  constexpr int kTrials = 300;
  std::vector<bench::Json> rows;
  for (double conflict : {0.05, 0.1, 0.15, 0.2, 0.3}) {
    analysis::RateCounter llsr, no_forget, comp_c, oracle;
    size_t violations = 0;
    for (int seed = 1; seed <= kTrials; ++seed) {
      workload::WorkloadSpec spec;
      spec.topology.kind = workload::TopologyKind::kLayeredDag;
      spec.topology.depth = 3;
      spec.topology.branches = 2;
      spec.topology.roots = 3;
      spec.execution.conflict_prob = conflict;
      spec.execution.disorder_prob = 0.6;
      auto cs = workload::GenerateSystem(spec, uint64_t(seed));
      COMPTX_CHECK(cs.ok()) << cs.status().ToString();

      llsr.Add(criteria::IsLevelByLevelSerializable(*cs));

      ReductionOptions ablated;
      ablated.forgetting = false;
      ablated.keep_fronts = false;
      auto without = RunReduction(*cs, ablated);
      COMPTX_CHECK(without.ok());
      no_forget.Add(without->comp_c);

      const bool accepted = IsCompC(*cs);
      comp_c.Add(accepted);
      auto truth = criteria::HierarchicalSerializabilityOracle(*cs);
      COMPTX_CHECK(truth.ok());
      oracle.Add(*truth);
      // Sanity: forgetting can only widen acceptance, and Comp-C stays
      // sound w.r.t. the oracle.
      violations += (without->comp_c && !accepted) || (accepted && !*truth);
    }
    bench::AddRow(rows,
                  bench::Json()
                      .Set("conflict", conflict)
                      .Set("trials", kTrials)
                      .Set("llsr", llsr.rate())
                      .Set("comp_c_no_forget", no_forget.rate())
                      .Set("comp_c", comp_c.rate())
                      .Set("oracle", oracle.rate())
                      .Set("gain_forgetting", comp_c.rate() - no_forget.rate())
                      .Mismatches(violations));
  }
  return bench::WriteReport(run_start,
                            argc > 1 ? argv[1] : "BENCH_forgetting.json",
                            "E8_forgetting_ablation",
                            bench::Json()
                                .Set("topology", "layered_dag")
                                .Set("disorder", 0.6)
                                .Set("rows", rows));
}
