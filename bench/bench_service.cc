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
// noisy: each cell runs kRepeats times and reports the median with its
// interquartile range.  Every row records hardware_concurrency, protocol
// and batch, the file records the git SHA, and every pass's verdicts are
// checked against a single-threaded batch replay.
//
// Usage: bench_service [--mode protocol|scaling|all] [output.json]
//   Default mode: all.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/correctness.h"
#include "git_sha.h"
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
constexpr size_t kRepeats = 9;

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
  size_t events = 0;
  double load_seconds = 0;
  double events_per_second = 0;
  // Over the cell's kRepeats passes; the fields above and below are the
  // medians of the per-pass values.
  double events_per_second_p25 = 0;
  double events_per_second_p75 = 0;
  uint64_t append_p50_us = 0;
  uint64_t append_p99_us = 0;
  uint64_t verdict_p50_us = 0;
  uint64_t verdict_p99_us = 0;
  size_t mismatches = 0;
};

/// One full server lifecycle: listen on an ephemeral loopback port, open
/// kSessions over the wire, stream every event from kClientThreads
/// connections in `cell.batch`-sized APPENDs, QUERY every verdict, shut
/// down.  Client-side RPC latency lands in the cell's percentiles.
void RunCell(Cell& cell,
             const std::vector<std::vector<workload::TraceEvent>>& streams,
             const std::vector<bool>& expected) {
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
  cell.events = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    auto session = control->Open();
    COMPTX_CHECK(session.ok()) << session.status().ToString();
    ids[s] = *session;
    cell.events += streams[s].size();
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
    if (verdict->certifiable != expected[s]) ++cell.mismatches;
  }
  cell.load_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  cell.events_per_second =
      cell.load_seconds > 0 ? double(cell.events) / cell.load_seconds : 0;

  const auto append_snap = append_hist.Snap();
  const auto verdict_snap = verdict_hist.Snap();
  cell.append_p50_us = append_snap.p50;
  cell.append_p99_us = append_snap.p99;
  cell.verdict_p50_us = verdict_snap.p50;
  cell.verdict_p99_us = verdict_snap.p99;
  server.Shutdown();
}

/// The q-quantile of `values`, interpolating between order statistics.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// Runs `proto` kRepeats times; the result holds the per-pass medians,
/// the events/s quartiles and the mismatches summed over every pass.
Cell MedianOfRepeats(
    const Cell& proto,
    const std::vector<std::vector<workload::TraceEvent>>& streams,
    const std::vector<bool>& expected) {
  std::vector<Cell> passes(kRepeats, proto);
  for (Cell& pass : passes) RunCell(pass, streams, expected);
  const auto values_of = [&passes](auto field) {
    std::vector<double> values;
    for (const Cell& pass : passes) {
      values.push_back(static_cast<double>(pass.*field));
    }
    return values;
  };
  const auto median_of = [&values_of](auto field) {
    return Quantile(values_of(field), 0.5);
  };
  Cell cell = passes.front();
  cell.load_seconds = median_of(&Cell::load_seconds);
  const std::vector<double> rates = values_of(&Cell::events_per_second);
  cell.events_per_second = Quantile(rates, 0.5);
  cell.events_per_second_p25 = Quantile(rates, 0.25);
  cell.events_per_second_p75 = Quantile(rates, 0.75);
  cell.append_p50_us = static_cast<uint64_t>(median_of(&Cell::append_p50_us));
  cell.append_p99_us = static_cast<uint64_t>(median_of(&Cell::append_p99_us));
  cell.verdict_p50_us =
      static_cast<uint64_t>(median_of(&Cell::verdict_p50_us));
  cell.verdict_p99_us =
      static_cast<uint64_t>(median_of(&Cell::verdict_p99_us));
  cell.mismatches = 0;
  for (const Cell& pass : passes) cell.mismatches += pass.mismatches;
  return cell;
}

void PrintCell(const Cell& c) {
  std::cout << c.suite << ": protocol="
            << service::WireProtocolToString(c.protocol)
            << " batch=" << c.batch << " io_threads=" << c.io_threads
            << " events_per_second=" << c.events_per_second << " (IQR "
            << c.events_per_second_p25 << "-" << c.events_per_second_p75
            << ")"
            << " append_p99_us=" << c.append_p99_us
            << " verdict_p99_us=" << c.verdict_p99_us
            << " mismatches=" << c.mismatches << "\n";
}

}  // namespace

int main(int argc, char** argv) {
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
  std::cout << "sessions=" << kSessions << " client_threads="
            << kClientThreads << " total_events=" << total_events
            << " cores=" << cores << "\n";

  std::vector<Cell> cells;

  if (mode == "protocol" || mode == "all") {
    struct ProtocolPoint {
      service::WireProtocol protocol;
      size_t batch;
    };
    const std::vector<ProtocolPoint> points = {
        {service::WireProtocol::kV1, 1},
        {service::WireProtocol::kV1, 32},
        {service::WireProtocol::kV2, 1},
        {service::WireProtocol::kV2, 16},
        {service::WireProtocol::kV2, 64},
    };
    for (const ProtocolPoint& p : points) {
      Cell proto;
      proto.suite = "protocol";
      proto.protocol = p.protocol;
      proto.batch = p.batch;
      proto.io_threads = 2;
      proto.workers = 2;
      cells.push_back(MedianOfRepeats(proto, streams, expected));
      PrintCell(cells.back());
    }
  }

  if (mode == "scaling" || mode == "all") {
    for (size_t io : io_sweep) {
      Cell proto;
      proto.suite = "scaling";
      proto.protocol = service::WireProtocol::kV2;
      proto.batch = 32;
      proto.io_threads = io;
      proto.workers = 4;
      cells.push_back(MedianOfRepeats(proto, streams, expected));
      PrintCell(cells.back());
    }
  }
  size_t total_mismatches = 0;
  for (const Cell& c : cells) total_mismatches += c.mismatches;

  // Headline ratios for the two acceptance curves.
  const auto find = [&](const std::string& suite, service::WireProtocol p,
                        size_t batch, size_t io) -> const Cell* {
    for (const Cell& c : cells) {
      if (c.suite == suite && c.protocol == p && c.batch == batch &&
          c.io_threads == io) {
        return &c;
      }
    }
    return nullptr;
  };
  const Cell* v1_base =
      find("protocol", service::WireProtocol::kV1, 1, 2);
  const Cell* v2_b16 =
      find("protocol", service::WireProtocol::kV2, 16, 2);
  const double batch_speedup =
      (v1_base != nullptr && v2_b16 != nullptr &&
       v1_base->events_per_second > 0)
          ? v2_b16->events_per_second / v1_base->events_per_second
          : 0;
  const Cell* io1 = find("scaling", service::WireProtocol::kV2, 32, 1);
  const Cell* io_max =
      find("scaling", service::WireProtocol::kV2, 32, io_sweep.back());
  const double io_scaling =
      (io1 != nullptr && io_max != nullptr && io1->events_per_second > 0)
          ? io_max->events_per_second / io1->events_per_second
          : 0;

  std::ostringstream json;
  json << "{\n"
       << "  \"experiment\": \"E13_certification_service\",\n"
       << "  \"transport\": \"tcp_loopback\",\n"
       << "  \"sessions\": " << kSessions << ",\n"
       << "  \"client_threads\": " << kClientThreads << ",\n"
       << "  \"total_events\": " << total_events << ",\n"
       << "  \"hardware_concurrency\": " << cores << ",\n"
       << "  \"git_sha\": \"" << bench::GitSha() << "\",\n"
       << "  \"repeats_per_cell\": " << kRepeats << ",\n"
       << "  \"statistic\": \"each row is the median of its passes; "
          "events_per_second_p25/p75 are the quartiles of its rates\",\n"
       << "  \"v2_batch16_speedup_over_v1_single\": " << batch_speedup
       << ",\n"
       << "  \"io_sweep_max\": " << io_sweep.back() << ",\n"
       << "  \"io_thread_scaling_max_over_1x\": " << io_scaling << ",\n"
       << "  \"all_verdicts_match_batch_replay\": "
       << (total_mismatches == 0 ? "true" : "false") << ",\n"
       << "  \"rows\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    json << "    {\"suite\": \"" << c.suite << "\", \"protocol\": \""
         << service::WireProtocolToString(c.protocol)
         << "\", \"batch\": " << c.batch
         << ", \"io_threads\": " << c.io_threads
         << ", \"workers\": " << c.workers
         << ", \"hardware_concurrency\": " << cores
         << ", \"events\": " << c.events
         << ", \"load_seconds\": " << c.load_seconds
         << ", \"events_per_second\": " << c.events_per_second
         << ", \"events_per_second_p25\": " << c.events_per_second_p25
         << ", \"events_per_second_p75\": " << c.events_per_second_p75
         << ", \"append_p50_us\": " << c.append_p50_us
         << ", \"append_p99_us\": " << c.append_p99_us
         << ", \"verdict_p50_us\": " << c.verdict_p50_us
         << ", \"verdict_p99_us\": " << c.verdict_p99_us
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
