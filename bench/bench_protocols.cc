// Experiment E6 (DESIGN.md): which protocols produce correct composite
// executions, by component-network shape.
//
// For each protocol and network shape, many seeded executions are run and
// the recorded composite schedules judged by Comp-C.  The paper's
// expected shape: serial, closed nesting, and validated open nesting are
// always correct; *uncoordinated* open nesting loses correctness once the
// configuration gives transactions multiple meeting points (DAG-like
// networks), which is exactly the problem the composite theory exists to
// characterize.  Every protocol but open nesting promises Comp-C, so its
// rows count each non-Comp-C execution as a mismatch.
//
// Usage: bench_protocols [output.json]   (default BENCH_protocols.json)

#include <vector>

#include "analysis/stats.h"
#include "core/correctness.h"
#include "harness.h"
#include "runtime/system_executor.h"
#include "util/logging.h"
#include "workload/program_gen.h"

namespace {

using namespace comptx;           // NOLINT
using namespace comptx::runtime;  // NOLINT

struct Shape {
  const char* name;
  workload::RuntimeWorkloadSpec spec;
};

std::vector<Shape> MakeShapes() {
  std::vector<Shape> shapes;
  {
    // Stack-ish: one component per layer, three layers deep.
    workload::RuntimeWorkloadSpec spec;
    spec.layers = 3;
    spec.components_per_layer = 1;
    spec.invoke_fraction = 0.6;
    spec.num_roots = 6;
    shapes.push_back({"pipeline(3x1)", spec});
  }
  {
    // Fork-ish: one entry layer, wide bottom.
    workload::RuntimeWorkloadSpec spec;
    spec.layers = 2;
    spec.components_per_layer = 4;
    spec.invoke_fraction = 0.7;
    spec.num_roots = 8;
    shapes.push_back({"wide(2x4)", spec});
  }
  {
    // General DAG: several components per layer, three layers — multiple
    // meeting points between any two roots.
    workload::RuntimeWorkloadSpec spec;
    spec.layers = 3;
    spec.components_per_layer = 2;
    spec.invoke_fraction = 0.6;
    spec.num_roots = 8;
    shapes.push_back({"dag(3x2)", spec});
  }
  return shapes;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  constexpr int kTrials = 60;
  std::vector<bench::Json> rows;
  for (Shape& shape : MakeShapes()) {
    shape.spec.items_per_component = 8;
    shape.spec.zipf_theta = 0.6;
    for (Protocol protocol :
         {Protocol::kGlobalSerial, Protocol::kClosedTwoPhase,
          Protocol::kOpenTwoPhase, Protocol::kOpenValidated,
          Protocol::kConservativeTimestamp}) {
      analysis::RateCounter correct;
      analysis::RunningStats deadlocks, validations, parallelism;
      for (int seed = 1; seed <= kTrials; ++seed) {
        RuntimeSystem system =
            workload::GenerateRuntimeWorkload(shape.spec, uint64_t(seed));
        ExecutorOptions options;
        options.protocol = protocol;
        options.seed = uint64_t(seed) * 977;
        auto result = ExecuteSystem(system, options);
        COMPTX_CHECK(result.ok()) << result.status().ToString();
        correct.Add(IsCompC(result->recorded));
        deadlocks.Add(double(result->stats.deadlock_restarts));
        validations.Add(double(result->stats.validation_restarts));
        parallelism.Add(result->stats.avg_parallelism);
      }
      bench::Json row;
      row.Set("shape", shape.name)
          .Set("protocol", ProtocolToString(protocol))
          .Set("trials", kTrials)
          .Set("comp_c_rate", correct.rate())
          .Set("deadlock_restarts", deadlocks.mean())
          .Set("validation_restarts", validations.mean())
          .Set("avg_parallelism", parallelism.mean());
      if (protocol != Protocol::kOpenTwoPhase) {
        row.Mismatches(correct.total() - correct.accepted());
      }
      bench::AddRow(rows, std::move(row));
    }
  }
  return bench::WriteReport(run_start,
                            argc > 1 ? argv[1] : "BENCH_protocols.json",
                            "E6_protocol_correctness",
                            bench::Json()
                                .Set("items_per_component", 8)
                                .Set("zipf_theta", 0.6)
                                .Set("rows", rows));
}
