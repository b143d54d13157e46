// Experiment E17 (DESIGN.md §15 / EXPERIMENTS.md): distributed composite
// certification — a 3-process fork/join topology vs a single comptx_serve
// process vs the bare in-process engine, on identical workloads.
//
// For each workload size the same grouped trace (distributed::
// GenerateGroupedTrace — the workload comptx_topology drives) is
// certified three ways:
//
//   engine      — one online::Certifier in-process, no service stack;
//                 the floor any service configuration pays against.
//   single      — a degenerate one-node topology: one comptx_serve
//                 child process, the same phased append/barrier/commit
//                 driver, fsync always.
//   distributed — the root/left/right fork/join: three comptx_serve
//                 processes, the trace partitioned across both leaves,
//                 ORDER_STREAM replication up to the root, and the
//                 cross-node two-phase commit per phase.
//
// Every cell runs bench::kRepeats passes and reports the median and
// quartiles of its time and rate (bench/harness.h).  Every pass's final
// verdict and commit watermark must equal the bare engine's on the same
// trace, or the cell counts a mismatch; the headline ratio is distributed
// vs single median events/second — the price of the replication hop and
// the cross-node commit, with the service stack itself factored out.
//
// Usage: bench_distributed [--serve BIN] [--data-dir DIR] [output.json]
//   --serve defaults to <bench dir>/../tools/comptx_serve, which is
//   right when the bench runs from the build tree.

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "distributed/topology.h"
#include "harness.h"
#include "online/certifier.h"
#include "util/logging.h"
#include "workload/trace.h"

namespace {

using namespace comptx;  // NOLINT
namespace fs = std::filesystem;

constexpr uint64_t kSeed = 20260814;
constexpr size_t kPhases = 3;

const char kSingleSpec[] =
    "# comptx-topology v1\n"
    "node solo\n";

const char kForkJoinSpec[] =
    "# comptx-topology v1\n"
    "node root\n"
    "node left\n"
    "node right\n"
    "edge root left\n"
    "edge root right\n";

/// What one pass of a cell measured.
struct Pass {
  double seconds = 0;
  double events_per_second = 0;
  bool certifiable = false;
  uint64_t commit_watermark = 0;
  uint64_t resubscribes = 0;
};

/// The in-process floor: one certifier, the whole trace, one trailing
/// commit_through watermark.
Pass RunEngine(const std::vector<workload::TraceEvent>& trace,
               uint64_t roots) {
  Pass pass;
  const bench::Clock::time_point start = bench::Clock::now();
  online::Certifier certifier{online::CertifierOptions{}};
  for (const auto& event : trace) (void)certifier.Ingest(event);
  workload::TraceEvent commit;
  commit.kind = workload::TraceEventKind::kCommitThrough;
  commit.a = static_cast<uint32_t>(roots);
  (void)certifier.Ingest(commit);
  pass.certifiable = certifier.Verdict().certifiable;
  pass.seconds = bench::MicrosSince(start) / 1e6;
  pass.commit_watermark = certifier.Stats().commit_watermark;
  return pass;
}

/// One topology run: spawn (untimed), drive the phased trace (timed),
/// report the final phase verdict.
StatusOr<Pass> RunTopology(const distributed::TopologySpec& spec,
                           const std::vector<workload::TraceEvent>& trace,
                           const std::string& serve_binary,
                           const std::string& data_dir) {
  Pass pass;
  std::error_code ec;
  fs::remove_all(data_dir, ec);
  distributed::RunnerOptions options;
  options.serve_binary = serve_binary;
  options.data_root = data_dir;
  options.phases = kPhases;
  distributed::TopologyRunner runner(spec, options);
  COMPTX_RETURN_IF_ERROR(runner.Start());
  const bench::Clock::time_point start = bench::Clock::now();
  auto report = runner.Drive(trace);
  pass.seconds = bench::MicrosSince(start) / 1e6;
  const Status down = runner.Shutdown();
  COMPTX_RETURN_IF_ERROR(report.status());
  if (!down.ok()) COMPTX_LOG(Warn) << "shutdown: " << down;
  if (report->phases.empty()) {
    return Status::Internal("topology run produced no phase verdicts");
  }
  pass.certifiable = report->phases.back().certifiable;
  pass.commit_watermark = report->phases.back().commit_watermark;
  pass.resubscribes = report->resubscribes;
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  std::string serve_binary;
  std::string data_root;
  std::string out_path = "BENCH_distributed.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--serve") {
      serve_binary = next("--serve");
    } else if (arg == "--data-dir") {
      data_root = next("--data-dir");
    } else {
      out_path = arg;
    }
  }
  if (serve_binary.empty()) {
    // Run from the build tree: bench/ and tools/ are siblings.
    serve_binary =
        (fs::path(argv[0]).parent_path() / ".." / "tools" / "comptx_serve")
            .lexically_normal()
            .string();
  }
  if (!fs::exists(serve_binary)) {
    std::cerr << "comptx_serve not found at " << serve_binary
              << " (pass --serve)\n";
    return 2;
  }
  if (data_root.empty()) {
    data_root = (fs::temp_directory_path() / "comptx_bench_distributed")
                    .string();
  }

  // Headline: what the replication hop + cross-node commit cost over the
  // same service stack in one process, at the largest size.
  std::vector<bench::Json> rows;
  double single_eps = 0, dist_eps = 0;
  for (const uint32_t roots : {6, 12, 24}) {
    auto trace = distributed::GenerateGroupedTrace(roots, kSeed, 0.0);
    if (!trace.ok()) {
      std::cerr << "workload generation failed: " << trace.status() << "\n";
      return 2;
    }
    const Pass engine = RunEngine(*trace, roots);
    std::vector<bench::Json> cells;
    for (const auto& [mode, spec_text] :
         {std::pair<const char*, const char*>{"engine", nullptr},
          std::pair<const char*, const char*>{"single", kSingleSpec},
          std::pair<const char*, const char*>{"distributed", kForkJoinSpec}}) {
      size_t processes = 0;
      std::vector<Pass> passes;
      if (spec_text == nullptr) {
        passes = bench::RunPasses([&] { return RunEngine(*trace, roots); });
      } else {
        auto spec = distributed::ParseTopologySpec(spec_text);
        COMPTX_CHECK(spec.ok()) << spec.status().ToString();
        processes = spec->nodes.size();
        const std::string dir =
            data_root + "/" + mode + "_" + std::to_string(roots);
        passes = bench::RunPasses([&] {
          auto pass = RunTopology(*spec, *trace, serve_binary, dir);
          if (!pass.ok()) {
            std::cerr << mode << " run failed at roots=" << roots << ": "
                      << pass.status() << "\n";
            std::exit(2);
          }
          return *pass;
        });
      }
      size_t mismatches = 0;
      for (Pass& pass : passes) {
        pass.events_per_second = double(trace->size()) / pass.seconds;
        mismatches += pass.certifiable != engine.certifiable ||
                      pass.commit_watermark != engine.commit_watermark;
      }
      const bench::Stats rate =
          bench::Summarize(passes, &Pass::events_per_second);
      if (mode == std::string("single")) single_eps = rate.median;
      if (mode == std::string("distributed")) dist_eps = rate.median;
      cells.push_back(bench::Json()
                          .Set("mode", mode)
                          .Set("processes", processes)
                          .Set("seconds",
                               bench::Summarize(passes, &Pass::seconds))
                          .Set("events_per_second", rate)
                          .Set("certifiable", passes.front().certifiable)
                          .Set("commit_watermark",
                               passes.front().commit_watermark)
                          .Set("resubscribes", passes.front().resubscribes)
                          .Mismatches(mismatches));
    }
    bench::AddRow(rows, bench::Json()
                            .Set("roots", roots)
                            .Set("events", trace->size())
                            .Set("cells", cells));
  }
  std::error_code ec;
  fs::remove_all(data_root, ec);
  return bench::WriteReport(
      run_start, out_path, "E17_distributed_certification",
      bench::Json()
          .Set("topology", "fork_join_3_process")
          .Set("phases", kPhases)
          .Set("fsync", "always")
          .Set("seed", kSeed)
          .Set("single_over_distributed_events_per_second",
               dist_eps > 0 ? single_eps / dist_eps : 0)
          .Set("rows", rows));
}
