// Distributed-topology driver (DESIGN.md §15): spawns one comptx_serve
// process per node of a topology spec, wires the fork/join DAG with
// ATTACH edges, partitions a composite trace across the leaves, drives
// it in phases with a barrier + two-phase commit per phase, and checks
// the merged root trace against the batch oracle and a single-process
// differential replay.
//
// Usage: comptx_topology --spec FILE --serve BIN --data-dir DIR
//                        (--trace FILE | --roots N [--seed S] [--disorder P])
//                        [--phases N] [--kill NODE [--kill-phase P]]
//                        [--json FILE] [--out FILE] [--verbose]
//
//   --spec        topology file ("# comptx-topology v1"; node/edge lines)
//   --serve       path to the comptx_serve binary to spawn
//   --data-dir    scratch root; per-node WALs, port files and logs live
//                 under DIR/<node>/
//   --trace       drive this comptx-trace file
//   --roots       generate a stacked-schedule workload with N roots instead
//   --disorder    anomaly probability for the generated workload; 0 (the
//                 default) generates order-preserving (certifiable)
//                 executions, >0 injects serialization anomalies
//   --phases      commit phases (default 4); each phase ends with a
//                 barrier on the root's exact stream watermark, a
//                 PREPARE/DECIDE round, and a QUERY verdict
//   --kill        SIGKILL this node after its --kill-phase slice is
//                 drained, respawn it on the same port/data dir, and
//                 require the run to still converge (the recovery drill)
//   --json        write the run report as JSON here
//   --out         write the merged root trace here (comptx-trace v1)
//
// Checks (all must pass for exit 0):
//   1. every phase verdict matches a single-process certifier fed the
//      identical merged prefix + commit watermark (the differential);
//   2. the final merged system satisfies batch CheckCompC iff the root's
//      online verdict says certifiable;
//   3. the merged trace has exactly the expected event count (ordered
//      delivery + dedup accounting).
//
// Exit codes: 0 = all checks pass, 1 = verdict mismatch or check
// failure, 2 = usage or setup error.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/correctness.h"
#include "core/reduction.h"
#include "distributed/topology.h"
#include "online/certifier.h"
#include "util/cli_flags.h"
#include "util/version.h"
#include "workload/trace.h"

namespace {

using namespace comptx;  // NOLINT

int Usage(int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: comptx_topology --spec FILE --serve BIN --data-dir DIR\n"
         "                       (--trace FILE | --roots N [--seed S]\n"
         "                        [--disorder P])\n"
         "                       [--phases N] [--kill NODE [--kill-phase P]]\n"
         "                       [--json FILE] [--out FILE] [--verbose]\n"
         "\n"
         "Spawns one comptx_serve per topology node, partitions the trace\n"
         "across the leaves, drives it in phases with a cross-node\n"
         "two-phase commit per phase, and checks the merged root trace\n"
         "against the batch oracle and a single-process differential\n"
         "replay.  Exit 0 iff every check passes.\n";
  return code;
}

StatusOr<std::vector<workload::TraceEvent>> LoadTraceEvents(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return workload::ParseTraceEvents(buffer.str());
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path, trace_path, json_path, out_path;
  distributed::RunnerOptions options;
  distributed::DrillConfig drill;
  bool have_drill = false;
  uint32_t roots = 0;
  uint64_t seed = 20260814;
  double disorder = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--version") {
      PrintToolVersion("comptx_topology");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else if (arg == "--spec") {
      spec_path = next("--spec");
    } else if (arg == "--serve") {
      options.serve_binary = next("--serve");
    } else if (arg == "--data-dir") {
      options.data_root = next("--data-dir");
    } else if (arg == "--trace") {
      trace_path = next("--trace");
    } else if (arg == "--roots") {
      roots = static_cast<uint32_t>(
          UintFlagOrExit("--roots", next("--roots"), 0, UINT32_MAX));
    } else if (arg == "--seed") {
      seed = UintFlagOrExit("--seed", next("--seed"));
    } else if (arg == "--disorder") {
      disorder = DoubleFlagOrExit("--disorder", next("--disorder"));
    } else if (arg == "--phases") {
      options.phases = UintFlagOrExit("--phases", next("--phases"));
    } else if (arg == "--kill") {
      drill.node = next("--kill");
      have_drill = true;
    } else if (arg == "--kill-phase") {
      drill.after_phase = UintFlagOrExit("--kill-phase", next("--kill-phase"));
    } else if (arg == "--json") {
      json_path = next("--json");
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return Usage(2);
    }
  }
  if (spec_path.empty() || options.serve_binary.empty() ||
      options.data_root.empty()) {
    std::cerr << "--spec, --serve and --data-dir are required\n";
    return Usage(2);
  }
  if (trace_path.empty() == (roots == 0)) {
    std::cerr << "exactly one of --trace or --roots is required\n";
    return Usage(2);
  }

  auto spec = distributed::LoadTopologySpec(spec_path);
  if (!spec.ok()) {
    std::cerr << "bad topology spec: " << spec.status() << "\n";
    return 2;
  }
  auto trace = trace_path.empty()
                   ? distributed::GenerateGroupedTrace(roots, seed, disorder)
                   : LoadTraceEvents(trace_path);
  if (!trace.ok()) {
    std::cerr << "cannot load trace: " << trace.status() << "\n";
    return 2;
  }

  distributed::TopologyRunner runner(*spec, options);
  Status started = runner.Start();
  if (!started.ok()) {
    std::cerr << "topology start failed: " << started << "\n";
    return 2;
  }
  auto report = runner.Drive(*trace, have_drill ? &drill : nullptr);
  const Status down = runner.Shutdown();
  if (!report.ok()) {
    std::cerr << "drive failed: " << report.status() << "\n";
    return 2;
  }
  if (!down.ok()) {
    std::cerr << "warning: shutdown: " << down << "\n";
  }

  // Check 3: exact merged accounting (Drive already barriered on it, so
  // this is a belt check on FetchMerged).
  std::vector<std::string> failures;
  if (report->merged.size() != report->expected_root_events) {
    failures.push_back("merged trace has " +
                       std::to_string(report->merged.size()) + " events, " +
                       "expected " +
                       std::to_string(report->expected_root_events));
  }

  // Check 1: the differential — a single-process certifier fed the
  // identical merged prefixes and commit watermarks must produce the
  // identical verdict sequence.
  {
    online::Certifier certifier{online::CertifierOptions{}};
    size_t fed = 0;
    for (const auto& phase : report->phases) {
      for (; fed < phase.root_events && fed < report->merged.size(); ++fed) {
        (void)certifier.Ingest(report->merged[fed]);
      }
      if (phase.k > 0) {
        workload::TraceEvent commit;
        commit.kind = workload::TraceEventKind::kCommitThrough;
        commit.a = static_cast<uint32_t>(phase.k);
        (void)certifier.Ingest(commit);
      }
      const online::CertifierVerdict verdict = certifier.Verdict();
      if (verdict.certifiable != phase.certifiable) {
        failures.push_back(
            "phase k=" + std::to_string(phase.k) +
            ": distributed verdict " +
            (phase.certifiable ? "certifiable" : "not certifiable") +
            " but single-process replay says " +
            (verdict.certifiable ? "certifiable" : "not certifiable"));
      }
      const uint64_t replay_watermark = certifier.Stats().commit_watermark;
      if (replay_watermark != phase.commit_watermark) {
        failures.push_back(
            "phase k=" + std::to_string(phase.k) +
            ": distributed commit watermark " +
            std::to_string(phase.commit_watermark) +
            " but single-process replay reached " +
            std::to_string(replay_watermark));
      }
    }
  }

  // Check 2: batch oracle over the merged system vs the final online
  // verdict.
  bool batch_correct = false;
  {
    CompositeSystem merged_cs;
    Status applied = Status::OK();
    for (const auto& event : report->merged) {
      applied = workload::ApplyTraceEvent(merged_cs, event);
      if (!applied.ok()) break;
    }
    if (!applied.ok()) {
      failures.push_back("merged trace does not replay: " +
                         applied.ToString());
    } else {
      ReductionOptions reduction;
      reduction.validate = false;
      auto batch = CheckCompC(merged_cs, reduction);
      if (!batch.ok()) {
        failures.push_back("batch oracle failed: " +
                           batch.status().ToString());
      } else {
        batch_correct = batch->correct;
        const bool final_online = report->phases.empty()
                                      ? true
                                      : report->phases.back().certifiable;
        if (batch_correct != final_online) {
          failures.push_back(
              std::string("batch oracle says ") +
              (batch_correct ? "certifiable" : "not certifiable") +
              " but the distributed verdict is " +
              (final_online ? "certifiable" : "not certifiable"));
        }
      }
    }
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "# comptx-trace v1\n";
    for (const auto& event : report->merged) {
      out << workload::FormatTraceEvent(event) << "\n";
    }
    out << "end\n";
  }

  std::ostringstream json;
  json << "{\n  \"nodes\": " << spec->nodes.size()
       << ",\n  \"leaves\": " << spec->leaves.size()
       << ",\n  \"events\": " << report->merged.size()
       << ",\n  \"expected_events\": " << report->expected_root_events
       << ",\n  \"roots\": " << report->total_roots
       << ",\n  \"resubscribes\": " << report->resubscribes
       << ",\n  \"drill\": " << (have_drill ? "true" : "false")
       << ",\n  \"batch_certifiable\": " << (batch_correct ? "true" : "false")
       << ",\n  \"phases\": [";
  for (size_t i = 0; i < report->phases.size(); ++i) {
    const auto& phase = report->phases[i];
    json << (i == 0 ? "" : ",") << "\n    {\"k\": " << phase.k
         << ", \"events\": " << phase.root_events << ", \"certifiable\": "
         << (phase.certifiable ? "true" : "false")
         << ", \"commit_watermark\": " << phase.commit_watermark << "}";
  }
  json << "\n  ],\n  \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    json << (i == 0 ? "" : ",") << "\n    \"" << JsonEscape(failures[i])
         << "\"";
  }
  json << "\n  ],\n  \"ok\": " << (failures.empty() ? "true" : "false")
       << "\n}\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
  }
  std::cout << json.str();

  for (const auto& failure : failures) {
    std::cerr << "FAIL: " << failure << "\n";
  }
  return failures.empty() ? 0 : 1;
}
