// Differential conformance fuzzer + delta-debugging minimizer CLI.
//
// Default mode runs a fuzz campaign: random composite executions are
// pushed through every decider the library has (batch reduction, online
// certifier, hierarchical oracle, SCC/FCC/JCC criteria, serial-front
// witness check) plus the metamorphic invariance layer; every
// disagreement is delta-debugged to a 1-minimal witness and written as a
// replayable JSON file.
//
// Usage:
//   comptx_shrink [--seed N] [--traces N] [--out DIR] [--threads N]
//                 [--inject-bug none|flip-oracle|flip-online|flip-criteria|flip-static|flip-commutes]
//                 [--no-metamorphic] [--max-shrink-calls N] [--quiet]
//   comptx_shrink --replay FILE...   re-check stored witnesses
//
// --threads N (default COMPTX_THREADS, else the core count) sizes the
// campaign's cross-trace fan-out; each trace's reduction runs on one
// thread.
//
// Exit codes: 0 = all deciders agree (or all witnesses replay clean),
// 1 = disagreement found (or a replayed witness fails), 2 = usage/IO
// error.  --inject-bug exists to prove end to end that a real decider
// bug would be caught, shrunk and reported; it is never a production
// mode, and --replay rejects being combined with it.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "testing/campaign.h"
#include "testing/witness.h"
#include "util/cli_flags.h"
#include "util/thread_pool.h"
#include "util/version.h"

namespace {

using namespace comptx;  // NOLINT

int Usage() {
  std::cerr
      << "usage: comptx_shrink [--seed N] [--traces N] [--out DIR]\n"
         "                     [--inject-bug none|flip-oracle|flip-online|"
         "flip-criteria|\n"
         "                                  flip-static|flip-commutes]\n"
         "                     [--no-metamorphic] [--threads N]\n"
         "                     [--max-shrink-calls N] [--quiet]\n"
         "       comptx_shrink --replay FILE...\n"
         "  --threads N  traces checked in parallel; each reduction is "
         "serial\n";
  return 2;
}

int RunReplay(const std::vector<std::string>& paths, bool quiet) {
  if (paths.empty()) {
    std::cerr << "--replay needs at least one witness file\n";
    return 2;
  }
  int failures = 0;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto record = testing::ParseWitnessJson(buffer.str());
    if (!record.ok()) {
      std::cerr << path << ": " << record.status() << "\n";
      return 2;
    }
    auto outcome = testing::ReplayWitness(*record);
    if (!outcome.ok()) {
      std::cerr << path << ": replay error: " << outcome.status() << "\n";
      return 2;
    }
    if (outcome->Passed()) {
      if (!quiet) {
        std::cout << path << ": ok (" << record->check << ", "
                  << record->events.size() << " events, comp_c="
                  << (record->comp_c ? "true" : "false") << ")\n";
      }
    } else {
      ++failures;
      std::cout << path << ": FAIL: " << outcome->message << "\n";
    }
  }
  if (failures > 0) {
    std::cout << failures << "/" << paths.size() << " witnesses failed\n";
    return 1;
  }
  if (!quiet) {
    std::cout << "all " << paths.size() << " witnesses replay clean\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  testing::CampaignOptions options;
  options.seed = 1;
  options.traces = 100;
  std::string out_dir;
  bool quiet = false;
  bool replay = false;
  bool inject_given = false;
  std::vector<std::string> replay_paths;

  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      PrintToolVersion("comptx_shrink");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--seed") {
      const char* v = need_value(i, "--seed");
      if (v == nullptr) return 2;
      options.seed = UintFlagOrExit("--seed", v);
    } else if (arg == "--traces") {
      const char* v = need_value(i, "--traces");
      if (v == nullptr) return 2;
      options.traces =
          static_cast<uint32_t>(UintFlagOrExit("--traces", v, 1, UINT32_MAX));
    } else if (arg == "--out") {
      const char* v = need_value(i, "--out");
      if (v == nullptr) return 2;
      out_dir = v;
    } else if (arg == "--inject-bug") {
      const char* v = need_value(i, "--inject-bug");
      if (v == nullptr) return 2;
      auto bug = testing::ParseInjectedBug(v);
      if (!bug.has_value()) {
        std::cerr << "unknown --inject-bug '" << v
                  << "' (none|flip-oracle|flip-online|flip-criteria|flip-static|flip-commutes)\n";
        return 2;
      }
      options.differential.inject = *bug;
      inject_given = *bug != testing::InjectedBug::kNone;
    } else if (arg == "--no-metamorphic") {
      options.run_metamorphic = false;
    } else if (arg == "--max-shrink-calls") {
      const char* v = need_value(i, "--max-shrink-calls");
      if (v == nullptr) return 2;
      options.shrink.max_predicate_calls = static_cast<uint32_t>(
          UintFlagOrExit("--max-shrink-calls", v, 1, UINT32_MAX));
    } else if (arg == "--threads") {
      const char* v = need_value(i, "--threads");
      if (v == nullptr) return 2;
      ThreadPool::SetGlobalThreads(UintFlagOrExit("--threads", v, 1));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--replay") {
      replay = true;
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        replay_paths.push_back(argv[++i]);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag " << arg << "\n";
      return Usage();
    } else {
      std::cerr << "unexpected argument " << arg << "\n";
      return Usage();
    }
  }

  if (replay) {
    if (inject_given || !out_dir.empty()) {
      std::cerr << "--replay cannot be combined with --inject-bug/--out\n";
      return 2;
    }
    return RunReplay(replay_paths, quiet);
  }

  std::error_code ec;
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::cerr << "cannot create --out directory " << out_dir << ": "
                << ec.message() << "\n";
      return 2;
    }
  }

  size_t written = 0;
  bool write_error = false;
  options.on_witness = [&](const testing::WitnessRecord& record) {
    std::cout << "DISAGREEMENT [" << record.check << "] seed=" << record.seed
              << " (" << record.generator << ")\n  " << record.detail
              << "\n  shrunk " << record.events_initial << " -> "
              << record.events_final << " events\n";
    if (out_dir.empty()) return;
    const std::string path =
        (std::filesystem::path(out_dir) / (record.id + ".json")).string();
    std::ofstream out(path);
    out << testing::FormatWitnessJson(record);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      write_error = true;
      return;
    }
    std::cout << "  witness written to " << path << "\n";
    ++written;
  };

  auto result = testing::RunFuzzCampaign(options);
  if (!result.ok()) {
    std::cerr << "campaign error: " << result.status() << "\n";
    return 2;
  }
  if (write_error) return 2;
  const testing::CampaignStats& stats = result->stats;
  if (!quiet) {
    std::cout << "campaign: seed=" << options.seed << " traces=" << stats.traces
              << " threads=" << ThreadPool::Global().ThreadCount()
              << " inject="
              << testing::InjectedBugToString(options.differential.inject)
              << "\n  comp_c=" << stats.comp_c_count << "/" << stats.traces
              << " single_meet=" << stats.single_meet
              << " prefix_checked=" << stats.prefix_checked
              << " metamorphic_checked=" << stats.metamorphic_checked
              << " events=" << stats.total_events << "\n";
  }
  if (result->clean()) {
    std::cout << "zero decider disagreements across " << stats.traces
              << " traces\n";
    return 0;
  }
  std::cout << stats.failing_traces << " failing traces, "
            << result->witnesses.size() << " minimized witnesses ("
            << stats.shrink_predicate_calls << " shrink predicate calls)";
  if (!out_dir.empty()) std::cout << ", " << written << " written";
  std::cout << "\n";
  return 1;
}
