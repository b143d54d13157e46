// Experiment E5 (DESIGN.md): cost of the Comp-C decision procedure.
//
// Three tables, all through the bench harness:
//  * batch_reduction: one dense-engine RunReduction (serial) on the E10
//    layered-DAG workload, beside the pre-rewrite map/set baseline;
//  * scaling: RunReduction (Def 16 / Theorem 1) as a function of roots,
//    depth and fan-out, and Validate alone, on generated stacks and DAGs;
//  * sweep: multi-trace SweepCompC throughput at 1/2/4 pool threads, each
//    verdict checked against a serial RunReduction of the same system.
//
// Usage: bench_reduction_scaling [output.json]
//   (default BENCH_reduction.json)

#include <vector>

#include "analysis/sweep.h"
#include "core/correctness.h"
#include "harness.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT
using bench::DoNotOptimize;

CompositeSystem MakeSystem(workload::TopologyKind kind, uint32_t roots,
                           uint32_t depth, uint32_t fanout, double conflict,
                           uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.topology.kind = kind;
  spec.topology.depth = depth;
  spec.topology.branches = 2;
  spec.topology.roots = roots;
  spec.topology.fanout = fanout;
  spec.execution.conflict_prob = conflict;
  auto cs = workload::GenerateSystem(spec, seed);
  COMPTX_CHECK(cs.ok()) << cs.status().ToString();
  return std::move(cs).value();
}

/// The E10 workload (layered DAG, depth 3, conflict 0.15, intra-weak
/// probability at its default 0.2).
CompositeSystem MakeE10System(uint32_t roots, uint64_t seed) {
  return MakeSystem(workload::TopologyKind::kLayeredDag, roots, 3, 2, 0.15,
                    seed);
}

ReductionOptions Unvalidated() {
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  return options;
}

bench::Stats TimeReduction(const CompositeSystem& cs,
                           const ReductionOptions& options) {
  return bench::TimeUs([&] {
    auto result = RunReduction(cs, options);
    COMPTX_CHECK(result.ok());
    DoNotOptimize(result->comp_c);
  });
}

/// Pre-rewrite RunReduction medians on the identical E10 workloads,
/// measured at commit 1962996 (map/set relation storage, serial
/// pipeline).  Kept inline so the emitted JSON is self-contained.
struct BaselineRow {
  uint32_t roots;
  double run_us;
};
constexpr BaselineRow kMainBaseline[] = {
    {16, 1495.08}, {32, 6340.25}, {64, 28915.4}};

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  std::vector<bench::Json> batch_rows;
  for (const BaselineRow& base : kMainBaseline) {
    const CompositeSystem cs =
        MakeE10System(base.roots, 20260806 + base.roots);
    const bench::Stats us = TimeReduction(cs, Unvalidated());
    bench::AddRow(batch_rows, bench::Json()
                                  .Set("roots", base.roots)
                                  .Set("nodes", cs.NodeCount())
                                  .Set("run_us", us)
                                  .Set("baseline_main_us", base.run_us)
                                  .Set("speedup_vs_main",
                                       base.run_us / us.median));
  }

  std::vector<bench::Json> scaling_rows;
  struct Point {
    bool validate_only;  // time Validate alone, not the reduction
    const char* vary;
    workload::TopologyKind kind;
    uint32_t roots, depth, fanout;
    uint64_t seed;
  };
  using workload::TopologyKind;
  std::vector<Point> points;
  for (uint32_t r : {2, 4, 8, 16, 32}) {
    points.push_back({false, "roots", TopologyKind::kStack, r, 3, 2, 42});
  }
  for (uint32_t d : {2, 3, 4, 5, 6}) {
    points.push_back({false, "depth", TopologyKind::kStack, 4, d, 2, 43});
  }
  for (uint32_t f : {2, 3, 4, 5}) {
    points.push_back({false, "fanout", TopologyKind::kLayeredDag, 4, 3, f, 44});
  }
  for (uint32_t r : {4, 16, 32}) {
    points.push_back({true, "roots", TopologyKind::kStack, r, 3, 2, 45});
  }
  for (const Point& p : points) {
    const CompositeSystem cs =
        MakeSystem(p.kind, p.roots, p.depth, p.fanout, 0.1, p.seed);
    ReductionOptions options;
    options.keep_fronts = false;
    const bench::Stats us =
        p.validate_only
            ? bench::TimeUs([&] { COMPTX_CHECK(cs.Validate().ok()); })
            : TimeReduction(cs, options);
    bench::AddRow(scaling_rows,
                  bench::Json()
                      .Set("op", p.validate_only ? "validate" : "reduction")
                      .Set("vary", p.vary)
                      .Set("topology",
                           workload::TopologyKindToString(p.kind))
                      .Set("roots", p.roots)
                      .Set("depth", p.depth)
                      .Set("fanout", p.fanout)
                      .Set("leaves", cs.Leaves().size())
                      .Set("nodes", cs.NodeCount())
                      .Set("us", us));
  }

  // Multi-trace sweep throughput: 32 independent E10 systems (8 roots)
  // checked through the SweepCompC driver.
  std::vector<CompositeSystem> systems;
  std::vector<const CompositeSystem*> pointers;
  std::vector<bool> expected;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    systems.push_back(MakeE10System(8, 777000 + seed));
  }
  for (const CompositeSystem& cs : systems) {
    pointers.push_back(&cs);
    auto result = RunReduction(cs, Unvalidated());
    COMPTX_CHECK(result.ok());
    expected.push_back(result->comp_c);
  }
  std::vector<bench::Json> sweep_rows;
  for (const size_t threads : {1, 2, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<analysis::SweepVerdict> verdicts;
    const bench::Stats us = bench::TimeUs(
        [&] { verdicts = analysis::SweepCompC(pointers, Unvalidated()); });
    size_t mismatches = 0;
    for (size_t i = 0; i < verdicts.size(); ++i) {
      mismatches += !verdicts[i].ok || verdicts[i].comp_c != expected[i];
    }
    bench::AddRow(sweep_rows,
                  bench::Json()
                      .Set("traces", pointers.size())
                      .Set("threads", threads)
                      .Set("total_us", us)
                      .Set("per_trace_us",
                           us.median / double(pointers.size()))
                      .Mismatches(mismatches +
                                  (verdicts.size() != pointers.size())));
  }
  ThreadPool::SetGlobalThreads(1);

  return bench::WriteReport(
      run_start,
      argc > 1 ? argv[1] : "BENCH_reduction.json", "E5_reduction_scaling",
      bench::Json()
          .Set("workload",
               bench::Json()
                   .Set("topology", "layered_dag")
                   .Set("depth", 3)
                   .Set("branches", 2)
                   .Set("fanout", 2)
                   .Set("conflict_prob", 0.15)
                   .Set("intra_weak_prob", 0.2)
                   .Set("seed", "20260806+roots"))
          .Set("baseline_commit", "1962996")
          .Set("baseline_storage",
               "std::map/std::set relations, serial pipeline")
          .Set("batch_reduction", batch_rows)
          .Set("scaling", scaling_rows)
          .Set("sweep", sweep_rows));
}
