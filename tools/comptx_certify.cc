// Online certification CLI: replays a comptx-trace file event by event
// through an online::Certifier and reports whether the execution stays
// certifiable at every prefix.  With --check, every accepted prefix is
// additionally cross-validated against batch CheckCompC (validation
// disabled: prefixes of well-formed executions legitimately violate the
// completeness rules of Defs 3-4); the per-prefix batch runs fan out over
// the thread pool after the online pass.
//
// Usage: comptx_certify [--check] [--no-prune] [--stats] [--threads N]
//                       <trace-file>
//        comptx_certify --demo [--check]
//
// --threads N (default COMPTX_THREADS, else the core count) sizes only
// the --check prefix cross-validation, one prefix per task.  Each
// reduction, and the online replay, runs on one thread.
//
// The static configuration analyzer's verdict for a trace file is
// `comptx_lint --verdict`; this tool always runs the online engine.
//
// Exit codes: 0 = certifiable, 1 = not certifiable, 2 = usage/IO error
// (including a --check disagreement, which indicates a comptx bug).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/figures.h"
#include "analysis/sweep.h"
#include "core/correctness.h"
#include "online/certifier.h"
#include "util/cli_flags.h"
#include "util/thread_pool.h"
#include "util/version.h"
#include "workload/trace.h"

namespace {

using namespace comptx;  // NOLINT

constexpr char kUsage[] =
    "usage: comptx_certify [--check] [--no-prune] [--stats] [--threads N] "
    "<trace-file> | --demo\n"
    "  --threads N  prefixes cross-validated in parallel by --check; each "
    "reduction is serial\n";

const char* StepName(online::OnlineFailure::Step step) {
  switch (step) {
    case online::OnlineFailure::Step::kCalculation:
      return "calculation";
    case online::OnlineFailure::Step::kConflictConsistency:
      return "conflict consistency";
  }
  return "?";
}

struct CliOptions {
  bool check = false;
  bool stats = false;
  bool prune = true;
};

int Certify(const std::string& text, const CliOptions& cli) {
  auto events = workload::ParseTraceEvents(text);
  if (!events.ok()) {
    std::cerr << "trace parse error: " << events.status() << "\n";
    return 2;
  }

  online::CertifierOptions options;
  options.auto_prune = cli.prune;
  online::Certifier certifier(options);
  // For --check: the accepted events and the online verdict after each one.
  std::vector<workload::TraceEvent> accepted;
  std::vector<bool> online_verdicts;

  size_t index = 0;
  bool reported_failure = false;
  for (const workload::TraceEvent& event : *events) {
    ++index;
    Status status = certifier.Ingest(event);
    if (!status.ok()) {
      std::cerr << "event " << index << " ("
                << workload::FormatTraceEvent(event)
                << ") rejected: " << status << "\n";
      continue;  // rejected events leave the session unchanged
    }
    online::CertifierVerdict verdict = certifier.Verdict();
    if (!verdict.certifiable && !reported_failure) {
      reported_failure = true;
      std::cout << "not certifiable after event " << index << " ("
                << workload::FormatTraceEvent(event) << ")\n";
      if (verdict.failure.has_value()) {
        std::cout << "  level " << verdict.failure->level << ", "
                  << StepName(verdict.failure->step)
                  << " violation: " << verdict.failure->description << "\n";
      }
    }
    if (cli.check) {
      accepted.push_back(event);
      online_verdicts.push_back(verdict.certifiable);
    }
  }

  if (cli.check) {
    // Cross-validate every accepted prefix against the batch checker; the
    // per-prefix reductions are independent, so they fan out over the pool.
    ReductionOptions reduction;
    reduction.keep_fronts = false;
    auto batch = analysis::BatchPrefixVerdicts(accepted, reduction);
    if (!batch.ok()) {
      std::cerr << "batch checker error: " << batch.status() << "\n";
      return 2;
    }
    for (size_t i = 0; i < accepted.size(); ++i) {
      if ((*batch)[i] != online_verdicts[i]) {
        std::cerr << "DISAGREEMENT at accepted event " << i + 1 << " ("
                  << workload::FormatTraceEvent(accepted[i])
                  << "): online says "
                  << (online_verdicts[i] ? "certifiable" : "not certifiable")
                  << ", batch says "
                  << ((*batch)[i] ? "correct" : "incorrect") << "\n";
        return 2;
      }
    }
  }

  online::CertifierVerdict verdict = certifier.Verdict();
  if (verdict.certifiable) {
    std::cout << "certifiable (order " << verdict.order << ", " << index
              << " events";
    std::vector<NodeId> witness = certifier.SerialWitness();
    if (!witness.empty()) {
      std::cout << "; serial witness:";
      for (NodeId root : witness) {
        std::cout << " " << certifier.system().node(root).name;
      }
    }
    std::cout << ")\n";
  }
  if (cli.check) std::cout << "batch agreement: all prefixes\n";
  if (cli.stats) {
    online::CertifierStats stats = certifier.Stats();
    std::cout << "stats: threads=" << ThreadPool::Global().ThreadCount()
              << " accepted=" << stats.events_accepted
              << " rejected=" << stats.events_rejected
              << " rebuilds=" << stats.rebuilds
              << " prune_passes=" << stats.prune_passes
              << " pruned_nodes=" << stats.pruned_nodes
              << " live_nodes=" << stats.live_nodes
              << " observed_pairs=" << stats.observed_pairs
              << " cc_edges=" << stats.cc_edges
              << " calc_edges=" << stats.calc_edges
              << " closure_pairs=" << stats.closure_pairs
              << " weak_output_generators=" << stats.weak_output_generators
              << "\n";
  }
  return verdict.certifiable ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  bool demo = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--version") {
      PrintToolVersion("comptx_certify");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--check") {
      cli.check = true;
    } else if (arg == "--stats") {
      cli.stats = true;
    } else if (arg == "--no-prune") {
      cli.prune = false;
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << "--threads needs a count\n";
        return 2;
      }
      comptx::ThreadPool::SetGlobalThreads(
          comptx::UintFlagOrExit("--threads", argv[++i], 1));
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag " << arg << "\n" << kUsage;
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "multiple trace files given\n";
      return 2;
    }
  }
  if (demo == !path.empty()) {  // exactly one of --demo / <trace-file>
    std::cerr << kUsage;
    return 2;
  }
  if (demo) {
    auto text = workload::SaveTrace(analysis::MakeFigure4().system);
    if (!text.ok()) {
      std::cerr << "demo generation failed: " << text.status() << "\n";
      return 2;
    }
    std::cout << "demo trace (Figure 4):\n" << *text << "\n";
    return Certify(*text, cli);
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Certify(buffer.str(), cli);
}
