// Experiment E7 (DESIGN.md): the concurrency that semantic knowledge
// buys — the paper's core motivation ("current models offer only
// restricted degrees of parallelism", §2).
//
// Makespan (lock-step rounds) and effective parallelism of the four
// protocols on one component network, as a function of how much semantic
// commutativity the components declare (the probability that two services
// of a component are *conflicting*; the rest commute).
//
// Expected shape: uncoordinated open nesting is fastest but unsafe (E6);
// the safe protocols' cost tracks declared conflicts — with mostly
// commuting services, validated open nesting approaches open nesting's
// speed while staying Comp-C, which is precisely the trade the composite
// theory is about.  Closed nesting pays root-lifetime locks regardless.
// No oracle: the rows are costs, not verdicts.
//
// Usage: bench_throughput [output.json]   (default BENCH_throughput.json)

#include <vector>

#include "analysis/stats.h"
#include "harness.h"
#include "runtime/system_executor.h"
#include "util/logging.h"
#include "workload/program_gen.h"

namespace {

using namespace comptx;           // NOLINT
using namespace comptx::runtime;  // NOLINT

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  constexpr int kTrials = 40;
  std::vector<bench::Json> rows;
  for (double conflict_prob : {0.0, 0.3, 0.7}) {
    workload::RuntimeWorkloadSpec spec;
    spec.layers = 3;
    spec.components_per_layer = 2;
    spec.invoke_fraction = 0.6;
    spec.num_roots = 12;
    spec.items_per_component = 32;
    spec.zipf_theta = 0.6;
    spec.service_conflict_prob = conflict_prob;

    double serial_rounds = 0.0;
    for (Protocol protocol :
         {Protocol::kGlobalSerial, Protocol::kClosedTwoPhase,
          Protocol::kOpenTwoPhase, Protocol::kOpenValidated,
          Protocol::kConservativeTimestamp}) {
      analysis::RunningStats rounds, parallelism, restarts;
      for (int seed = 1; seed <= kTrials; ++seed) {
        RuntimeSystem system =
            workload::GenerateRuntimeWorkload(spec, uint64_t(seed));
        ExecutorOptions options;
        options.protocol = protocol;
        options.seed = uint64_t(seed) * 31 + 7;
        auto result = ExecuteSystem(system, options);
        COMPTX_CHECK(result.ok()) << result.status().ToString();
        rounds.Add(double(result->stats.rounds));
        parallelism.Add(result->stats.avg_parallelism);
        restarts.Add(double(result->stats.deadlock_restarts +
                            result->stats.validation_restarts));
      }
      if (protocol == Protocol::kGlobalSerial) serial_rounds = rounds.mean();
      bench::AddRow(
          rows, bench::Json()
                    .Set("svc_conflict_prob", conflict_prob)
                    .Set("protocol", ProtocolToString(protocol))
                    .Set("trials", kTrials)
                    .Set("rounds_mean", rounds.mean())
                    .Set("speedup_vs_serial", serial_rounds / rounds.mean())
                    .Set("parallelism", parallelism.mean())
                    .Set("restarts_mean", restarts.mean()));
    }
  }
  return bench::WriteReport(run_start,
                            argc > 1 ? argv[1] : "BENCH_throughput.json",
                            "E7_protocol_makespan",
                            bench::Json()
                                .Set("shape", "dag(3x2)")
                                .Set("roots", 12)
                                .Set("items_per_component", 32)
                                .Set("zipf_theta", 0.6)
                                .Set("rows", rows));
}
