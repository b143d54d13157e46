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
// Each cell runs bench::kRepeats passes, and every per-pass value is
// reported as its median and quartiles (bench/harness.h).  The
// wal_bytes_per_event column is the median of WAL bytes written (magic,
// OPEN/SEAL markers, compaction rewrites included) per ingested event.
//
// Usage: bench_wal [output.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
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

#include "harness.h"

namespace {

using namespace comptx;  // NOLINT
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr size_t kSessions = 16;
constexpr size_t kClientThreads = 4;
constexpr size_t kAppendChunk = 32;

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

/// What one pass of a cell measured.
struct Pass {
  double load_seconds = 0;
  double events_per_second = 0;
  double wal_appends = 0;
  double wal_bytes = 0;
  double fsyncs = 0;
  double snapshots_written = 0;
  double recovery_ms = 0;
  double sessions_recovered = 0;
  size_t mismatches = 0;
};

Pass RunPass(durability::FsyncPolicy policy, uint64_t snapshot_events,
             const std::vector<std::vector<workload::TraceEvent>>& streams,
             const std::vector<bool>& expected, const fs::path& dir) {
  Pass pass;
  size_t events = 0;

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
      events += streams[s].size();
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
    pass.load_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    pass.events_per_second =
        pass.load_seconds > 0 ? double(events) / pass.load_seconds : 0;
    const durability::Counters& counters = server.metrics().durability;
    pass.wal_appends = double(counters.wal_appends.load());
    pass.wal_bytes = double(counters.wal_bytes.load());
    pass.fsyncs = double(counters.fsyncs.load());
    pass.snapshots_written = double(counters.snapshots_written.load());
    server.Shutdown();  // graceful: persists every session
  }

  // Crash-restart path: a fresh server rebuilds every session from the
  // cell's data dir; its verdicts must match the batch oracle.
  const Clock::time_point restart = Clock::now();
  service::CertificationServer recovered(options);
  pass.recovery_ms =
      std::chrono::duration<double>(Clock::now() - restart).count() * 1e3;
  COMPTX_CHECK(recovered.InitStatus().ok())
      << recovered.InitStatus().ToString();
  pass.sessions_recovered =
      recovered.metrics().durability.sessions_recovered.load();
  for (size_t s = 0; s < streams.size(); ++s) {
    auto verdict = recovered.Query(ids[s]);
    if (!verdict.ok() || verdict->certifiable != expected[s] ||
        verdict->events_accepted + verdict->events_rejected !=
            streams[s].size()) {
      ++pass.mismatches;
      std::cerr << "MISMATCH session " << ids[s] << " under "
                << durability::FsyncPolicyName(policy) << "/"
                << snapshot_events << "\n";
      continue;
    }
    COMPTX_CHECK(recovered.Close(ids[s]).ok());
  }
  recovered.Shutdown();
  fs::remove_all(dir);
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
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

  using durability::FsyncPolicy;
  std::vector<bench::Json> rows;
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kInterval, FsyncPolicy::kAlways}) {
    for (const uint64_t cadence : {0, 2048}) {
      const std::vector<Pass> passes = bench::RunPasses(
          [&] { return RunPass(policy, cadence, streams, expected, dir); });
      size_t mismatches = 0;
      for (const Pass& pass : passes) mismatches += pass.mismatches;
      const auto stats = [&passes](double Pass::*field) {
        return bench::Summarize(passes, field);
      };
      const bench::Stats wal_bytes = stats(&Pass::wal_bytes);
      bench::AddRow(
          rows,
          bench::Json()
              .Set("fsync", durability::FsyncPolicyName(policy))
              .Set("snapshot_events", cadence)
              .Set("events", total_events)
              .Set("load_seconds", stats(&Pass::load_seconds))
              .Set("events_per_second", stats(&Pass::events_per_second))
              .Set("wal_appends", stats(&Pass::wal_appends))
              .Set("wal_bytes", wal_bytes)
              .Set("wal_bytes_per_event",
                   wal_bytes.median / double(total_events))
              .Set("fsyncs", stats(&Pass::fsyncs))
              .Set("snapshots_written", stats(&Pass::snapshots_written))
              .Set("recovery_ms", stats(&Pass::recovery_ms))
              .Set("sessions_recovered", stats(&Pass::sessions_recovered))
              .Mismatches(mismatches));
    }
  }
  fs::remove_all(dir);
  return bench::WriteReport(
      run_start, out_path, "E14_wal_durability",
      bench::Json()
          .Set("sessions", kSessions)
          .Set("client_threads", kClientThreads)
          .Set("total_events", total_events)
          .Set("note",
               "every pass restarts a fresh server on the cell's data dir "
               "and replays; recovery_ms covers the full rebuild, "
               "mismatches compares recovered verdicts to the batch oracle")
          .Set("rows", rows));
}
