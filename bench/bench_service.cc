// Experiment E13 (DESIGN.md §10/§12, EXPERIMENTS.md): certification
// service throughput and verdict latency over the real wire.
//
// Drives the server through TCP loopback with service::ServiceClient, so
// every cell pays the full path: framing, epoll event loop, handler pool,
// session run queues.  Two suites:
//
//   protocol — fixed thread counts, sweeping (protocol, batch):
//       v1/b1, v1/b32, v2/b1, v2/b16, v2/b64.
//     v1/b1 is the old one-event-per-APPEND baseline; v2/b16+ shows what
//     BATCH_APPEND's one-enqueue-one-WAL-commit amortization buys.
//
//   scaling — v2/b32, sweeping I/O threads over the points of 1/2/4/8
//     that do not exceed hardware_concurrency, at fixed workers.
//
// One cell's load phase lasts tens of milliseconds, so a single pass is
// noisy: each cell runs bench::kRepeats passes, and every per-pass value
// is reported as its median and quartiles (bench/harness.h).  Every
// pass's verdicts are checked against a single-threaded batch replay.
//
// Usage: bench_service [--mode protocol|scaling|all] [output.json]
//   Default mode: all.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/correctness.h"
#include "harness.h"
#include "service/client.h"
#include "service/server.h"
#include "util/logging.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT
using Clock = std::chrono::steady_clock;

constexpr size_t kSessions = 64;
constexpr size_t kClientThreads = 8;

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
    COMPTX_CHECK_OK(workload::ApplyTraceEvent(cs, event));
  }
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  auto result = CheckCompC(cs, options);
  COMPTX_CHECK(result.ok()) << result.status().ToString();
  return result->correct;
}

struct Cell {
  std::string suite;
  service::WireProtocol protocol = service::WireProtocol::kV1;
  size_t batch = 1;
  size_t io_threads = 2;
  size_t workers = 2;
};

/// What one pass of a cell measured.
struct Pass {
  double load_seconds = 0;
  double events_per_second = 0;
  double append_p50_us = 0;
  double append_p99_us = 0;
  double verdict_p50_us = 0;
  double verdict_p99_us = 0;
  size_t mismatches = 0;
};

/// One full server lifecycle: listen on an ephemeral loopback port, open
/// kSessions over the wire, stream every event from kClientThreads
/// connections in `cell.batch`-sized APPENDs, QUERY every verdict, shut
/// down.  Client-side RPC latency lands in the pass's percentiles.
Pass RunPass(const Cell& cell,
             const std::vector<std::vector<workload::TraceEvent>>& streams,
             const std::vector<bool>& expected) {
  Pass pass;
  service::ServerOptions options;
  options.workers = cell.workers;
  options.io_threads = cell.io_threads;
  options.batch_size = 64;
  options.session.queue_capacity = 1024;
  service::CertificationServer server(options);
  service::Endpoint endpoint;  // 127.0.0.1, kernel-chosen port
  COMPTX_CHECK_OK(server.Listen(endpoint));

  auto control = service::ServiceClient::Dial(endpoint, cell.protocol);
  COMPTX_CHECK(control.ok()) << control.status().ToString();
  std::vector<uint64_t> ids(kSessions);
  size_t events = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    auto session = control->Open();
    COMPTX_CHECK(session.ok()) << session.status().ToString();
    ids[s] = *session;
    events += streams[s].size();
  }

  // Load phase: each client thread owns a disjoint slice of sessions
  // (per-session order needs per-session ownership) and round-robins
  // batch-sized APPENDs across its slice over its own connection.
  service::LatencyHistogram append_hist;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      auto client = service::ServiceClient::Dial(endpoint, cell.protocol);
      COMPTX_CHECK(client.ok()) << client.status().ToString();
      std::vector<size_t> cursors(kSessions, 0);
      bool progress = true;
      while (progress) {
        progress = false;
        for (size_t s = t; s < kSessions; s += kClientThreads) {
          const auto& stream = streams[s];
          size_t& cursor = cursors[s];
          if (cursor >= stream.size()) continue;
          const size_t n = std::min(cell.batch, stream.size() - cursor);
          std::vector<workload::TraceEvent> chunk(
              stream.begin() + cursor, stream.begin() + cursor + n);
          cursor += n;
          const Clock::time_point rpc_start = Clock::now();
          auto queued = client->Append(ids[s], chunk);
          COMPTX_CHECK(queued.ok()) << queued.status().ToString();
          append_hist.Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - rpc_start)
                  .count()));
          progress = true;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // Verdict phase: QUERY every session (the drain barrier — this is the
  // latency a caller waiting for a verdict actually pays).
  service::LatencyHistogram verdict_hist;
  for (size_t s = 0; s < kSessions; ++s) {
    const Clock::time_point rpc_start = Clock::now();
    auto verdict = control->Query(ids[s]);
    verdict_hist.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              rpc_start)
            .count()));
    COMPTX_CHECK(verdict.ok()) << verdict.status().ToString();
    if (verdict->certifiable != expected[s]) ++pass.mismatches;
  }
  pass.load_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  pass.events_per_second =
      pass.load_seconds > 0 ? double(events) / pass.load_seconds : 0;

  const auto append_snap = append_hist.Snap();
  const auto verdict_snap = verdict_hist.Snap();
  pass.append_p50_us = double(append_snap.p50);
  pass.append_p99_us = double(append_snap.p99);
  pass.verdict_p50_us = double(verdict_snap.p50);
  pass.verdict_p99_us = double(verdict_snap.p99);
  server.Shutdown();
  return pass;
}

/// Runs `cell` bench::kRepeats times and summarizes every per-pass value;
/// `events_per_second` gets the median rate.
bench::Json MeasureCell(
    const Cell& cell,
    const std::vector<std::vector<workload::TraceEvent>>& streams,
    const std::vector<bool>& expected, double& events_per_second) {
  const std::vector<Pass> passes =
      bench::RunPasses([&] { return RunPass(cell, streams, expected); });
  size_t mismatches = 0;
  for (const Pass& pass : passes) mismatches += pass.mismatches;
  const auto stats = [&passes](double Pass::*field) {
    return bench::Summarize(passes, field);
  };
  events_per_second = stats(&Pass::events_per_second).median;
  bench::Json row;
  row.Set("suite", cell.suite)
      .Set("protocol", service::WireProtocolToString(cell.protocol))
      .Set("batch", cell.batch)
      .Set("io_threads", cell.io_threads)
      .Set("workers", cell.workers)
      .Set("load_seconds", stats(&Pass::load_seconds))
      .Set("events_per_second", stats(&Pass::events_per_second))
      .Set("append_p50_us", stats(&Pass::append_p50_us))
      .Set("append_p99_us", stats(&Pass::append_p99_us))
      .Set("verdict_p50_us", stats(&Pass::verdict_p50_us))
      .Set("verdict_p99_us", stats(&Pass::verdict_p99_us))
      .Mismatches(mismatches);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  std::string mode = "all";
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = argv[++i];
    } else {
      out_path = argv[i];
    }
  }
  if (mode != "protocol" && mode != "scaling" && mode != "all") {
    std::cerr << "unknown --mode " << mode
              << " (want protocol, scaling or all)\n";
    return 2;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  std::vector<size_t> io_sweep;
  for (size_t io : {1, 2, 4, 8}) {
    if (io == 1 || io <= cores) io_sweep.push_back(io);
  }

  // One fixed workload for every cell, so a sweep varies exactly one
  // knob.  Ground truth is computed once, single-threaded.
  std::vector<std::vector<workload::TraceEvent>> streams(kSessions);
  std::vector<bool> expected(kSessions);
  size_t total_events = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    streams[s] = MakeEvents(4 + s % 5, 4200 + s);
    expected[s] = BatchVerdict(streams[s]);
    total_events += streams[s].size();
  }

  // The headline ratios compare median rates of two cells each.
  std::vector<bench::Json> rows;
  double v1_single = 0, v2_batch16 = 0, io_first = 0, io_last = 0;
  if (mode == "protocol" || mode == "all") {
    using service::WireProtocol;
    const std::pair<WireProtocol, size_t> points[] = {
        {WireProtocol::kV1, 1},  {WireProtocol::kV1, 32},
        {WireProtocol::kV2, 1},  {WireProtocol::kV2, 16},
        {WireProtocol::kV2, 64},
    };
    for (const auto& [protocol, batch] : points) {
      double rate = 0;
      bench::AddRow(rows, MeasureCell({"protocol", protocol, batch, 2, 2},
                                      streams, expected, rate));
      if (protocol == WireProtocol::kV1 && batch == 1) v1_single = rate;
      if (protocol == WireProtocol::kV2 && batch == 16) v2_batch16 = rate;
    }
  }
  if (mode == "scaling" || mode == "all") {
    for (const size_t io : io_sweep) {
      double rate = 0;
      const Cell cell{"scaling", service::WireProtocol::kV2, 32, io, 4};
      bench::AddRow(rows, MeasureCell(cell, streams, expected, rate));
      if (io == 1) io_first = rate;
      io_last = rate;  // the sweep ascends
    }
  }
  return bench::WriteReport(
      run_start, out_path, "E13_certification_service",
      bench::Json()
          .Set("transport", "tcp_loopback")
          .Set("sessions", kSessions)
          .Set("client_threads", kClientThreads)
          .Set("total_events", total_events)
          .Set("v2_batch16_speedup_over_v1_single",
               v1_single > 0 ? v2_batch16 / v1_single : 0)
          .Set("io_sweep_max", io_sweep.back())
          .Set("io_thread_scaling_max_over_1x",
               io_first > 0 ? io_last / io_first : 0)
          .Set("rows", rows));
}
