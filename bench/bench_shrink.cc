// Shrinker throughput: how fast the delta debugger minimizes witnesses
// of growing event streams.  Two predicate regimes: a cheap structural
// predicate (locating one named root — shrink overhead dominates) and
// the realistic differential predicate (every candidate runs the full
// decider stack against an injected online-verdict flip).  A shrunk
// witness that no longer satisfies its predicate is a mismatch.
//
// Usage: bench_shrink [output.json]   (default BENCH_shrink.json)

#include <string>
#include <vector>

#include "harness.h"
#include "testing/differential.h"
#include "testing/events.h"
#include "testing/shrink.h"
#include "util/logging.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT

std::vector<workload::TraceEvent> GenerateEvents(uint32_t roots,
                                                 std::string* root_name) {
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kLayeredDag;
  spec.topology.depth = 3;
  spec.topology.branches = 2;
  spec.topology.roots = roots;
  spec.topology.fanout = 2;
  spec.execution.conflict_prob = 0.3;
  spec.execution.disorder_prob = 0.3;
  auto cs = workload::GenerateSystem(spec, 42);
  COMPTX_CHECK(cs.ok()) << cs.status().ToString();
  *root_name = cs->node(cs->Roots().back()).name;
  auto events = testing::SystemToEvents(*cs);
  COMPTX_CHECK(events.ok()) << events.status().ToString();
  return *std::move(events);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  std::vector<bench::Json> rows;
  for (const bool named_root : {true, false}) {
    for (const uint32_t roots : {3u, 6u, 12u}) {
      std::string root_name;
      const std::vector<workload::TraceEvent> events =
          GenerateEvents(roots, &root_name);
      testing::DifferentialOptions options;
      options.inject = testing::InjectedBug::kFlipOnline;
      const testing::FailurePredicate predicate =
          [&](const CompositeSystem& cs) {
            if (named_root) {
              for (uint32_t i = 0; i < cs.NodeCount(); ++i) {
                if (cs.node(NodeId(i)).name == root_name) return true;
              }
              return false;
            }
            auto report = testing::CheckConformance(cs, options);
            if (!report.ok()) return false;
            for (const testing::Disagreement& d : report->disagreements) {
              if (d.check == "batch-vs-online") return true;
            }
            return false;
          };
      testing::ShrinkStats stats;
      std::vector<workload::TraceEvent> witness;
      const bench::Stats us = bench::TimeUs([&] {
        auto shrunk = testing::ShrinkEvents(events, predicate, {}, &stats);
        COMPTX_CHECK(shrunk.ok()) << shrunk.status().ToString();
        witness = *std::move(shrunk);
      });
      const auto system = testing::BuildSystem(witness);
      bench::AddRow(rows, bench::Json()
                              .Set("predicate",
                                   named_root ? "named_root" : "differential")
                              .Set("roots", roots)
                              .Set("events", events.size())
                              .Set("witness_events", witness.size())
                              .Set("predicate_calls", stats.predicate_calls)
                              .Set("us", us)
                              .Mismatches(!system.ok() || !predicate(*system)));
    }
  }
  return bench::WriteReport(run_start,
                            argc > 1 ? argv[1] : "BENCH_shrink.json",
                            "E11_shrink_throughput",
                            bench::Json().Set("rows", rows));
}
