// Experiment E14 (DESIGN.md §11 / EXPERIMENTS.md): durability cost and
// recovery speed.
//
// Sweeps the fsync policy (none / interval / always) against the
// snapshot cadence (0 = WAL only, 2048 = snapshot+compact) on the
// in-process CertificationServer with durability enabled, measuring for
// every cell:
//
//   * ingest throughput (events/sec) under the durability tax,
//   * the WAL counters (bytes written, fsyncs issued, snapshots taken),
//   * recovery_ms — wall time for a fresh server to rebuild every
//     session from the cell's data dir (the crash-restart path), and
//   * verdict agreement between every recovered session and a
//     single-threaded batch replay (must be exact; the run exits 1
//     otherwise).
//
// Expectation: `always` pays per-batch group-commit fsyncs (slowest,
// zero acked loss on power failure), `interval` pays a handful per
// second, `none` pays none.  Snapshots cost a little during load and
// buy back recovery time by replacing replay with restore+suffix.
//
// Plain chrono driver, same idiom as bench_online/bench_service: one run
// emits the committed machine-readable BENCH_wal.json, stamped with the
// git SHA and hardware_concurrency.  Each cell runs kRepeats times; a row
// reports the fastest pass plus the median rate and its spread.  The
// wal_bytes_per_event column is WAL bytes written (magic, OPEN/SEAL
// markers, compaction rewrites included) per ingested event.
//
// Usage: bench_wal [output.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/correctness.h"
#include "durability/wal.h"
#include "service/server.h"
#include "util/logging.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

#include "git_sha.h"

namespace {

using namespace comptx;  // NOLINT
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr size_t kSessions = 16;
constexpr size_t kClientThreads = 4;
constexpr size_t kAppendChunk = 32;
constexpr int kRepeats = 3;

std::vector<workload::TraceEvent> MakeEvents(uint32_t roots, uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kLayeredDag;
  spec.topology.depth = 3;
  spec.topology.branches = 2;
  spec.topology.roots = roots;
  spec.topology.fanout = 2;
  spec.execution.conflict_prob = 0.15;
  spec.execution.intra_weak_prob = 0.2;
  auto cs = workload::GenerateSystem(spec, seed);
  COMPTX_CHECK(cs.ok()) << cs.status().ToString();
  auto text = workload::SaveTrace(*cs);
  COMPTX_CHECK(text.ok());
  auto events = workload::ParseTraceEvents(*text);
  COMPTX_CHECK(events.ok());
  return std::move(events).value();
}

bool BatchVerdict(const std::vector<workload::TraceEvent>& events) {
  CompositeSystem cs;
  for (const auto& event : events) {
    (void)workload::ApplyTraceEvent(cs, event);
  }
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  auto result = CheckCompC(cs, options);
  COMPTX_CHECK(result.ok()) << result.status().ToString();
  return result->correct;
}

struct Cell {
  durability::FsyncPolicy policy = durability::FsyncPolicy::kNone;
  uint64_t snapshot_events = 0;
  size_t events = 0;
  double load_seconds = 0;
  double events_per_second = 0;
  double events_per_second_median = 0;  // over the cell's kRepeats passes
  double events_per_second_spread = 0;  // (max - min) / median
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t snapshots_written = 0;
  double recovery_ms = 0;
  uint64_t sessions_recovered = 0;
  size_t mismatches = 0;
};

Cell RunCell(durability::FsyncPolicy policy, uint64_t snapshot_events,
             const std::vector<std::vector<workload::TraceEvent>>& streams,
             const std::vector<bool>& expected, const fs::path& dir) {
  Cell cell;
  cell.policy = policy;
  cell.snapshot_events = snapshot_events;

  fs::remove_all(dir);
  service::ServerOptions options;
  options.workers = 4;
  options.durability.dir = dir.string();
  options.durability.fsync = policy;
  options.durability.fsync_interval_ms = 5;
  options.durability.snapshot_events = snapshot_events;

  std::vector<uint64_t> ids(streams.size());
  {
    service::CertificationServer server(options);
    COMPTX_CHECK(server.InitStatus().ok()) << server.InitStatus().ToString();
    for (size_t s = 0; s < streams.size(); ++s) {
      auto id = server.Open();
      COMPTX_CHECK(id.ok()) << id.status().ToString();
      ids[s] = *id;
      cell.events += streams[s].size();
    }

    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, t] {
        for (size_t s = t; s < streams.size(); s += kClientThreads) {
          const auto& events = streams[s];
          for (size_t cursor = 0; cursor < events.size();) {
            const size_t n =
                std::min(kAppendChunk, events.size() - cursor);
            Status queued = server.Append(
                ids[s], {events.begin() + cursor,
                         events.begin() + cursor + n});
            COMPTX_CHECK(queued.ok()) << queued.ToString();
            cursor += n;
          }
        }
      });
    }
    for (auto& client : clients) client.join();
    for (const uint64_t id : ids) {
      COMPTX_CHECK(server.Query(id).ok());  // drain barrier per session
    }
    cell.load_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    cell.events_per_second =
        cell.load_seconds > 0 ? double(cell.events) / cell.load_seconds : 0;
    const durability::Counters& counters = server.metrics().durability;
    cell.wal_appends = counters.wal_appends.load();
    cell.wal_bytes = counters.wal_bytes.load();
    cell.fsyncs = counters.fsyncs.load();
    cell.snapshots_written = counters.snapshots_written.load();
    server.Shutdown();  // graceful: persists every session
  }

  // Crash-restart path: a fresh server rebuilds every session from the
  // cell's data dir; its verdicts must match the batch oracle.
  const Clock::time_point restart = Clock::now();
  service::CertificationServer recovered(options);
  cell.recovery_ms =
      std::chrono::duration<double>(Clock::now() - restart).count() * 1e3;
  COMPTX_CHECK(recovered.InitStatus().ok())
      << recovered.InitStatus().ToString();
  cell.sessions_recovered =
      recovered.metrics().durability.sessions_recovered.load();
  for (size_t s = 0; s < streams.size(); ++s) {
    auto verdict = recovered.Query(ids[s]);
    if (!verdict.ok() || verdict->certifiable != expected[s] ||
        verdict->events_accepted + verdict->events_rejected !=
            streams[s].size()) {
      ++cell.mismatches;
      std::cerr << "MISMATCH session " << ids[s] << " under "
                << durability::FsyncPolicyName(cell.policy) << "/"
                << cell.snapshot_events << "\n";
      continue;
    }
    COMPTX_CHECK(recovered.Close(ids[s]).ok());
  }
  recovered.Shutdown();
  fs::remove_all(dir);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_wal.json";
  const fs::path dir =
      fs::temp_directory_path() /
      ("comptx_bench_wal_" + std::to_string(::getpid()));

  // One fixed workload for every cell, so rows differ only in policy.
  std::vector<std::vector<workload::TraceEvent>> streams;
  std::vector<bool> expected;
  size_t total_events = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    streams.push_back(MakeEvents(24, 5000 + s));
    expected.push_back(BatchVerdict(streams.back()));
    total_events += streams.back().size();
  }

  const durability::FsyncPolicy policies[] = {durability::FsyncPolicy::kNone,
                                              durability::FsyncPolicy::kInterval,
                                              durability::FsyncPolicy::kAlways};
  const uint64_t cadences[] = {0, 2048};

  std::vector<Cell> cells;
  size_t total_mismatches = 0;
  for (const durability::FsyncPolicy policy : policies) {
    for (const uint64_t cadence : cadences) {
      Cell best;
      std::vector<double> rates;
      for (int rep = 0; rep < kRepeats; ++rep) {
        Cell cell = RunCell(policy, cadence, streams, expected, dir);
        total_mismatches += cell.mismatches;
        rates.push_back(cell.events_per_second);
        if (rep == 0 || cell.events_per_second > best.events_per_second) {
          best = cell;
        }
      }
      std::sort(rates.begin(), rates.end());
      best.events_per_second_median = rates[rates.size() / 2];
      best.events_per_second_spread =
          best.events_per_second_median > 0
              ? (rates.back() - rates.front()) / best.events_per_second_median
              : 0;
      cells.push_back(best);
      std::cout << "fsync=" << durability::FsyncPolicyName(best.policy)
                << " snapshot_events=" << best.snapshot_events
                << " events_per_second=" << best.events_per_second
                << " fsyncs=" << best.fsyncs
                << " wal_bytes=" << best.wal_bytes
                << " wal_bytes_per_event="
                << double(best.wal_bytes) / double(best.events)
                << " recovery_ms=" << best.recovery_ms
                << " mismatches=" << best.mismatches << "\n";
    }
  }
  fs::remove_all(dir);

  std::ostringstream json;
  json << "{\n"
       << "  \"experiment\": \"E14_wal_durability\",\n"
       << "  \"git_sha\": \"" << bench::GitSha() << "\",\n"
       << "  \"repeats\": " << kRepeats << ",\n"
       << "  \"sessions\": " << kSessions << ",\n"
       << "  \"client_threads\": " << kClientThreads << ",\n"
       << "  \"total_events\": " << total_events << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"note\": \"every row restarts a fresh server on the cell's "
          "data dir and replays; recovery_ms covers the full rebuild, "
          "mismatches compares recovered verdicts to the batch oracle; "
          "a row is the fastest of its repeats, with the median rate and "
          "(max-min)/median beside it\",\n"
       << "  \"all_recovered_verdicts_match_batch_replay\": "
       << (total_mismatches == 0 ? "true" : "false") << ",\n"
       << "  \"rows\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    json << "    {\"fsync\": \"" << durability::FsyncPolicyName(c.policy)
         << "\", \"snapshot_events\": " << c.snapshot_events
         << ", \"events\": " << c.events
         << ", \"load_seconds\": " << c.load_seconds
         << ", \"events_per_second\": " << c.events_per_second
         << ", \"events_per_second_median\": " << c.events_per_second_median
         << ", \"events_per_second_spread\": " << c.events_per_second_spread
         << ", \"wal_appends\": " << c.wal_appends
         << ", \"wal_bytes\": " << c.wal_bytes
         << ", \"wal_bytes_per_event\": "
         << (c.events > 0 ? double(c.wal_bytes) / double(c.events) : 0)
         << ", \"fsyncs\": " << c.fsyncs
         << ", \"snapshots_written\": " << c.snapshots_written
         << ", \"recovery_ms\": " << c.recovery_ms
         << ", \"sessions_recovered\": " << c.sessions_recovered
         << ", \"mismatches\": " << c.mismatches << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return total_mismatches == 0 ? 0 : 1;
}
