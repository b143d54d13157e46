// Experiment E4 (DESIGN.md): the correctness-class hierarchy.
//
// Acceptance rates of flat conflict serializability (CSR), order
// preserving serializability (OPSR), level-by-level serializability
// (LLSR) and Comp-C on random composite executions, as a function of the
// conflict probability.  The paper's claim: the prior criteria are proper
// subsets — Comp-C must accept everything they accept plus a strictly
// positive "forgetting gap" (executions only Comp-C accepts).
//
// Two workload profiles per topology:
//   * minimal outputs — schedulers report only the orders they must
//     (conflicting + intra pairs); here OPSR degenerates to LLSR;
//   * order-preserving outputs — schedulers report their full
//     linearization, the regime OPSR was designed for, where its extra
//     order preservation visibly costs acceptance.
//
// LLSR ⊆ Comp-C is a property of minimal-output schedulers, so only those
// rows count its violations as mismatches.
//
// Usage: bench_hierarchy [output.json]   (default BENCH_hierarchy.json)

#include <vector>

#include "analysis/stats.h"
#include "criteria/compare.h"
#include "harness.h"
#include "util/logging.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT

struct Rates {
  analysis::RateCounter csr, opsr, llsr, comp_c;
  analysis::RateCounter gap;          // comp_c && !llsr
  analysis::RateCounter containment;  // llsr -> comp_c (must be 1.0)
};

Rates Sweep(workload::TopologyKind kind, double conflict, bool preserve,
            int trials) {
  Rates rates;
  for (int seed = 1; seed <= trials; ++seed) {
    workload::WorkloadSpec spec;
    spec.topology.kind = kind;
    spec.topology.depth = 3;
    spec.topology.branches = 2;
    spec.topology.roots = 3;
    spec.execution.conflict_prob = conflict;
    spec.execution.disorder_prob = preserve ? 0.0 : 0.6;
    spec.execution.order_preserving_outputs = preserve;
    auto cs = workload::GenerateSystem(spec, uint64_t(seed));
    COMPTX_CHECK(cs.ok()) << cs.status().ToString();
    auto verdicts = criteria::EvaluateAllCriteria(*cs);
    COMPTX_CHECK(verdicts.ok()) << verdicts.status().ToString();
    rates.csr.Add(verdicts->flat_csr);
    rates.opsr.Add(verdicts->opsr);
    rates.llsr.Add(verdicts->llsr);
    rates.comp_c.Add(verdicts->comp_c);
    rates.gap.Add(verdicts->comp_c && !verdicts->llsr);
    rates.containment.Add(!verdicts->llsr || verdicts->comp_c);
  }
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  constexpr int kTrials = 300;
  std::vector<bench::Json> rows;
  for (bool preserve : {false, true}) {
    for (auto kind : {workload::TopologyKind::kStack,
                      workload::TopologyKind::kLayeredDag}) {
      for (double conflict : {0.05, 0.1, 0.2, 0.4}) {
        const Rates rates = Sweep(kind, conflict, preserve, kTrials);
        bench::Json row;
        row.Set("outputs", preserve ? "order_preserving" : "minimal")
            .Set("topology", workload::TopologyKindToString(kind))
            .Set("conflict", conflict)
            .Set("trials", kTrials)
            .Set("flat_csr", rates.csr.rate())
            .Set("opsr", rates.opsr.rate())
            .Set("llsr", rates.llsr.rate())
            .Set("comp_c", rates.comp_c.rate())
            .Set("gap_comp_c_minus_llsr", rates.gap.rate());
        // An order-preserving scheduler's full output order becomes input
        // orders Comp-C's per-front CC checks honor but LLSR ignores, so
        // the containment is not checked in that regime.
        if (!preserve) {
          row.Mismatches(rates.containment.total() -
                         rates.containment.accepted());
        }
        bench::AddRow(rows, std::move(row));
      }
    }
  }
  return bench::WriteReport(run_start,
                            argc > 1 ? argv[1] : "BENCH_hierarchy.json",
                            "E4_correctness_hierarchy",
                            bench::Json().Set("rows", rows));
}
