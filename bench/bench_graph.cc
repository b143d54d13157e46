// Experiment E9 (DESIGN.md): graph-substrate microbenchmarks.
//
// The reduction engine spends its time in these primitives: cycle
// detection, transitive closure, quotient construction, topological sort.
// This bench pins their costs on front-sized random graphs so regressions
// in the substrate are visible independently of the engine.  The DAGs are
// acyclic by construction, so a cycle found or a failed sort on one is a
// mismatch.
//
// Usage: bench_graph [output.json]   (default BENCH_graph.json)

#include <vector>

#include "graph/cycle_finder.h"
#include "graph/quotient.h"
#include "graph/tarjan_scc.h"
#include "graph/topological_sort.h"
#include "graph/transitive_closure.h"
#include "harness.h"
#include "util/rng.h"

namespace {

using namespace comptx::graph;  // NOLINT
using comptx::bench::DoNotOptimize;

Digraph RandomDag(size_t n, size_t edges, uint64_t seed) {
  comptx::Rng rng(seed);
  Digraph g(n);
  for (size_t e = 0; e < edges; ++e) {
    // Forward edges only: guaranteed acyclic.
    uint32_t a = static_cast<uint32_t>(rng.UniformInt(n - 1));
    uint32_t b =
        a + 1 + static_cast<uint32_t>(rng.UniformInt(n - a - 1));
    g.AddEdge(a, b);
  }
  return g;
}

Digraph RandomGraph(size_t n, size_t edges, uint64_t seed) {
  comptx::Rng rng(seed);
  Digraph g(n);
  for (size_t e = 0; e < edges; ++e) {
    g.AddEdge(static_cast<uint32_t>(rng.UniformInt(n)),
              static_cast<uint32_t>(rng.UniformInt(n)));
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  namespace bench = comptx::bench;
  const bench::RunStart run_start;
  std::vector<bench::Json> rows;
  const auto row = [](const char* op, size_t nodes, const bench::Stats& us) {
    return bench::Json()
        .Set("op", op)
        .Set("nodes", nodes)
        .Set("edges", nodes * 4)
        .Set("us", us);
  };
  for (const size_t n : {64, 256, 1024, 4096}) {
    const Digraph dag = RandomDag(n, n * 4, 1);
    bool cyclic = false;
    const bench::Stats find_us = bench::TimeUs(
        [&] { DoNotOptimize(cyclic = FindCycle(dag).has_value()); });
    bench::AddRow(rows,
                  row("find_cycle_on_dag", n, find_us).Mismatches(cyclic));

    const Digraph g = RandomGraph(n, n * 4, 2);
    bench::AddRow(rows, row("tarjan_scc", n, bench::TimeUs([&] {
                              DoNotOptimize(TarjanScc(g));
                            })));

    if (n <= 1024) {
      const Digraph closure_dag = RandomDag(n, n * 4, 3);
      bench::AddRow(rows, row("transitive_closure", n, bench::TimeUs([&] {
                                TransitiveClosure tc(closure_dag);
                                DoNotOptimize(tc.Reaches(
                                    0, static_cast<uint32_t>(n - 1)));
                              })));
    }

    const Digraph sort_dag = RandomDag(n, n * 4, 4);
    bool sorted = true;
    const bench::Stats sort_us = bench::TimeUs(
        [&] { DoNotOptimize(sorted = TopologicalSort(sort_dag).ok()); });
    bench::AddRow(rows,
                  row("topological_sort", n, sort_us).Mismatches(!sorted));

    // Blocks of ~4 nodes, like grouping fan-out-4 transactions.
    const Digraph quotient_dag = RandomDag(n, n * 4, 5);
    std::vector<uint32_t> block(n);
    for (size_t v = 0; v < n; ++v) block[v] = static_cast<uint32_t>(v / 4);
    const auto blocks = static_cast<uint32_t>((n + 3) / 4);
    bench::AddRow(rows, row("quotient_graph", n, bench::TimeUs([&] {
                              DoNotOptimize(
                                  QuotientGraph(quotient_dag, block, blocks));
                            })));
  }
  return bench::WriteReport(run_start,
                            argc > 1 ? argv[1] : "BENCH_graph.json",
                            "E9_graph_substrate",
                            bench::Json().Set("rows", rows));
}
