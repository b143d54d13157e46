// Experiment E5 (DESIGN.md): cost of the Comp-C decision procedure.
//
// Two modes:
//  * default: google-benchmark over the reduction engine (Def 16 /
//    Theorem 1) — wall time as a function of roots, depth, and fan-out.
//  * `--json <out>`: plain-chrono driver that measures the dense-engine
//    batch reduction on the E10 layered-DAG workload (one reduction is
//    serial) plus multi-trace sweep throughput at 1/2/4 pool threads, and
//    emits the committed BENCH_reduction.json (with the pre-rewrite
//    map/set baseline embedded for the before/after comparison).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sweep.h"
#include "core/correctness.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT

CompositeSystem MakeSystem(workload::TopologyKind kind, uint32_t roots,
                           uint32_t depth, uint32_t fanout, uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.topology.kind = kind;
  spec.topology.depth = depth;
  spec.topology.branches = 2;
  spec.topology.roots = roots;
  spec.topology.fanout = fanout;
  spec.execution.conflict_prob = 0.1;
  auto cs = workload::GenerateSystem(spec, seed);
  COMPTX_CHECK(cs.ok()) << cs.status().ToString();
  return std::move(cs).value();
}

void BM_ReductionVsRoots(benchmark::State& state) {
  CompositeSystem cs =
      MakeSystem(workload::TopologyKind::kStack,
                 static_cast<uint32_t>(state.range(0)), 3, 2, 42);
  ReductionOptions options;
  options.keep_fronts = false;
  for (auto _ : state) {
    auto result = RunReduction(cs, options);
    COMPTX_CHECK(result.ok());
    benchmark::DoNotOptimize(result->comp_c);
  }
  state.counters["leaves"] = double(cs.Leaves().size());
  state.counters["nodes"] = double(cs.NodeCount());
}
BENCHMARK(BM_ReductionVsRoots)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ReductionVsDepth(benchmark::State& state) {
  CompositeSystem cs =
      MakeSystem(workload::TopologyKind::kStack, 4,
                 static_cast<uint32_t>(state.range(0)), 2, 43);
  ReductionOptions options;
  options.keep_fronts = false;
  for (auto _ : state) {
    auto result = RunReduction(cs, options);
    COMPTX_CHECK(result.ok());
    benchmark::DoNotOptimize(result->comp_c);
  }
  state.counters["leaves"] = double(cs.Leaves().size());
}
BENCHMARK(BM_ReductionVsDepth)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_ReductionVsFanout(benchmark::State& state) {
  CompositeSystem cs =
      MakeSystem(workload::TopologyKind::kLayeredDag, 4, 3,
                 static_cast<uint32_t>(state.range(0)), 44);
  ReductionOptions options;
  options.keep_fronts = false;
  for (auto _ : state) {
    auto result = RunReduction(cs, options);
    COMPTX_CHECK(result.ok());
    benchmark::DoNotOptimize(result->comp_c);
  }
  state.counters["leaves"] = double(cs.Leaves().size());
}
BENCHMARK(BM_ReductionVsFanout)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_ValidateOnly(benchmark::State& state) {
  CompositeSystem cs =
      MakeSystem(workload::TopologyKind::kStack,
                 static_cast<uint32_t>(state.range(0)), 3, 2, 45);
  for (auto _ : state) {
    Status status = cs.Validate();
    COMPTX_CHECK(status.ok());
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_ValidateOnly)->Arg(4)->Arg(16)->Arg(32);

// ---------------------------------------------------------------------------
// --json mode: the committed before/after measurement (BENCH_reduction.json).
// ---------------------------------------------------------------------------

/// Pre-rewrite RunReduction medians on the identical E10 workloads,
/// measured at commit 1962996 (map/set relation storage, serial
/// pipeline).  Kept inline so the emitted JSON is self-contained.
struct BaselineRow {
  uint32_t roots;
  double run_us;
};
constexpr BaselineRow kMainBaseline[] = {
    {16, 1495.08}, {32, 6340.25}, {64, 28915.4}};

CompositeSystem MakeE10System(uint32_t roots) {
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kLayeredDag;
  spec.topology.depth = 3;
  spec.topology.branches = 2;
  spec.topology.roots = roots;
  spec.topology.fanout = 2;
  spec.execution.conflict_prob = 0.15;
  spec.execution.intra_weak_prob = 0.2;
  auto cs = workload::GenerateSystem(spec, 20260806 + roots);
  COMPTX_CHECK(cs.ok()) << cs.status().ToString();
  return std::move(cs).value();
}

double MedianRunMicros(const CompositeSystem& cs, int repeats) {
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    auto result = RunReduction(cs, options);
    const auto stop = std::chrono::steady_clock::now();
    COMPTX_CHECK(result.ok());
    benchmark::DoNotOptimize(result->comp_c);
    samples.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int RunJsonMode(const std::string& out_path) {
  struct Row {
    uint32_t roots;
    size_t nodes;
    double run_us;
    double baseline_us;
  };
  struct SweepRow {
    size_t traces;
    size_t threads;
    double total_us;
  };
  std::vector<Row> rows;
  std::vector<SweepRow> sweep_rows;

  const int repeats = 9;
  for (const BaselineRow& base : kMainBaseline) {
    CompositeSystem cs = MakeE10System(base.roots);
    // Warm up allocator/caches once per system before sampling.
    (void)MedianRunMicros(cs, 1);
    const double us = MedianRunMicros(cs, repeats);
    rows.push_back({base.roots, cs.NodeCount(), us, base.run_us});
    std::cerr << "roots=" << base.roots << " run_us=" << us
              << " (main: " << base.run_us << ")\n";
  }

  // Multi-trace sweep throughput: 32 independent E10 systems checked
  // through the SweepCompC driver.
  {
    std::vector<CompositeSystem> systems;
    for (uint64_t seed = 1; seed <= 32; ++seed) {
      workload::WorkloadSpec spec;
      spec.topology.kind = workload::TopologyKind::kLayeredDag;
      spec.topology.depth = 3;
      spec.topology.branches = 2;
      spec.topology.roots = 8;
      spec.topology.fanout = 2;
      spec.execution.conflict_prob = 0.15;
      spec.execution.intra_weak_prob = 0.2;
      auto cs = workload::GenerateSystem(spec, 777000 + seed);
      COMPTX_CHECK(cs.ok());
      systems.push_back(std::move(cs).value());
    }
    std::vector<const CompositeSystem*> pointers;
    for (const CompositeSystem& cs : systems) pointers.push_back(&cs);
    ReductionOptions options;
    options.validate = false;
    options.keep_fronts = false;
    for (size_t threads : {1ul, 2ul, 4ul}) {
      ThreadPool::SetGlobalThreads(threads);
      (void)analysis::SweepCompC(pointers, options);  // warm-up
      const auto start = std::chrono::steady_clock::now();
      auto verdicts = analysis::SweepCompC(pointers, options);
      const auto stop = std::chrono::steady_clock::now();
      COMPTX_CHECK(verdicts.size() == pointers.size());
      sweep_rows.push_back(
          {pointers.size(), threads,
           std::chrono::duration<double, std::micro>(stop - start).count()});
    }
  }
  ThreadPool::SetGlobalThreads(1);

  std::ostringstream json;
  json << "{\n"
       << "  \"experiment\": \"reduction_scaling\",\n"
       << "  \"workload\": {\"topology\": \"layered_dag\", \"depth\": 3, "
          "\"branches\": 2, \"fanout\": 2, \"conflict_prob\": 0.15, "
          "\"intra_weak_prob\": 0.2, \"seed\": \"20260806+roots\"},\n"
       << "  \"baseline_commit\": \"1962996\",\n"
       << "  \"baseline_storage\": \"std::map/std::set relations, serial "
          "pipeline\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"batch_reduction\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"roots\": " << r.roots << ", \"nodes\": " << r.nodes
         << ", \"run_us\": " << r.run_us
         << ", \"baseline_main_us\": " << r.baseline_us
         << ", \"speedup_vs_main\": " << r.baseline_us / r.run_us << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep_rows.size(); ++i) {
    const SweepRow& s = sweep_rows[i];
    json << "    {\"traces\": " << s.traces << ", \"threads\": " << s.threads
         << ", \"total_us\": " << s.total_us
         << ", \"per_trace_us\": " << s.total_us / double(s.traces) << "}"
         << (i + 1 < sweep_rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--json") == 0) {
    return RunJsonMode(argc >= 3 ? argv[2] : "BENCH_reduction.json");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
