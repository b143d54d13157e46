// YCSB-style load driver for comptx_serve: many client threads stream
// generated execution traces into many concurrent certification sessions,
// with Zipf-skewed session choice (hot sessions see most of the traffic,
// like hot keys in a key-value benchmark), then query every verdict and
// check it against an offline single-threaded batch replay of the same
// events.  Exit status 1 on any verdict mismatch makes this the CI smoke
// gate for the service.
//
// Usage: comptx_load [--host H] [--port N] [--unix PATH]
//                    [--sessions N] [--threads N] [--events N] [--batch N]
//                    [--processes N] [--protocol v1|v2] [--theta Z]
//                    [--adt none|counter|set|queue|escrow|mixed]
//                    [--adt-instances N]
//                    [--seed N] [--commit-window N]
//                    [--rate EVENTS_PER_SEC | --rates R1,R2,...]
//                    [--no-verify] [--json PATH] [--shutdown]
//                    [--kill-pid P --kill-after N --state PATH]
//                    [--resume --state PATH]
//
//   --processes N forks N worker processes, each running the configured
//   sessions x threads against its share of the event budget with a
//   distinct seed — a multi-process client mix, the closest a single
//   driver gets to N independent tenants.  Each child streams its result
//   (including full latency histogram buckets) back over a pipe; the
//   parent merges the buckets exactly, so the reported percentiles are
//   those of the union, not an average of per-child percentiles.
//
//   --commit-window N interleaves commit_through watermark events into
//   every generated stream: after each N roots, a cumulative watermark
//   sealing them is inserted at the earliest point where no later event
//   still references their subtrees.  This is how a long-lived client
//   drives the server's pruning (each watermark seals a window that the
//   server prunes as it ingests it), and what keeps the per-session
//   live_nodes gauge flat under sustained load.
//
//   --events is the total event budget across all sessions.  The default
//   loop is closed (each thread appends as fast as the server admits —
//   backpressure is the pacing); --rate switches to an open loop that
//   schedules batch send times on a global ticket clock, and latency is
//   measured from the *intended* send time, so a stalled server inflates
//   the recorded tail instead of silently pausing the arrival process
//   (no coordinated omission).  --rates runs a latency-under-throughput
//   sweep: the event budget is split across the listed rates and each
//   point reports its own latency row.  --protocol picks the wire
//   framing: v1 is the textual protocol, v2 the binary one whose batched
//   APPENDs travel as one BATCH_APPEND frame.  --shutdown sends SHUTDOWN
//   after the run, so the CI job can assert the daemon exits 0.
//
//   Crash-drill mode (exercises the durability subsystem, DESIGN.md §11):
//   --kill-pid/--kill-after SIGKILLs the given server pid once N events
//   have been acked, then writes the per-session acked cursors (plus the
//   protocol and batch size, so the replay uses identical framing) to
//   --state and exits 0.  After the server restarts on the same
//   --data-dir, --resume --state re-dials, checks that no acked event was
//   lost, regenerates the deterministic streams, appends the unsent
//   suffix of each, and verifies every final verdict against the offline
//   batch replay of the *full* stream — the end-to-end proof that
//   certify-then-crash-then-recover equals certify-without-the-crash.
//
// Exit codes: 0 = all verdicts match (or kill fired and state written),
//             1 = mismatch or acked-event loss, 2 = usage/connect.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/correctness.h"
#include "service/client.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "util/cli_flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/version.h"
#include "util/zipf.h"
#include "workload/event_streams.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT
using Clock = std::chrono::steady_clock;

int Usage(int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: comptx_load [--host H] [--port N] [--unix PATH]\n"
         "                   [--sessions N] [--threads N] [--events N]\n"
         "                   [--batch N] [--processes N]\n"
         "                   [--protocol v1|v2] [--theta Z]\n"
         "                   [--adt none|counter|set|queue|escrow|mixed]\n"
         "                   [--adt-instances N]\n"
         "                   [--commit-window N]\n"
         "                   [--rate N | --rates R1,R2,...] [--seed N]\n"
         "                   [--no-verify] [--json PATH] [--shutdown]\n"
         "                   [--kill-pid P --kill-after N --state PATH]\n"
         "                   [--resume --state PATH]\n"
         "\n"
         "Streams generated traces into concurrent certification sessions\n"
         "(Zipf-skewed choice, closed loop unless --rate) and verifies\n"
         "every server verdict against an offline batch replay.\n"
         "--adt tags the generated leaf operations with a builtin\n"
         "commutativity spec (shipped in-stream), so the server's\n"
         "semantic layer erases the commuting conflicts;\n"
         "--adt-instances spreads the tags over N ADT instances.\n"
         "--protocol picks the wire framing (v1 textual, v2 binary with\n"
         "BATCH_APPEND).  --rate runs an open loop with coordinated-\n"
         "omission-safe latency (measured from intended send times);\n"
         "--rates sweeps several rates and prints one latency row each.\n"
         "--kill-pid/--kill-after SIGKILLs the server mid-load and saves\n"
         "acked cursors plus framing settings to --state; --resume picks\n"
         "the run back up after a restart with identical framing and\n"
         "checks recovery lost nothing.\n";
  return code;
}

struct LoadOptions {
  service::Endpoint endpoint;
  size_t sessions = 64;
  size_t threads = 8;
  size_t total_events = 20000;
  size_t batch = 32;
  size_t processes = 1;  // >1 forks worker processes (aggregated results)
  service::WireProtocol protocol = service::WireProtocol::kV1;
  double theta = 0.8;
  size_t commit_window = 0;   // roots per commit_through watermark; 0 = none
  double rate = 0;            // open-loop aggregate events/sec; 0 = closed
  std::vector<double> rates;  // latency-under-throughput sweep points
  // ADT operation mix of the generated streams: kNone is the bit-level
  // workload; anything else ships a builtin spec plus tags so the
  // server's semantic layer has conflicts to erase.
  workload::AdtMix adt = workload::AdtMix::kNone;
  uint32_t adt_instances = 4;
  uint64_t seed = 20260806;
  bool verify = true;
  bool send_shutdown = false;
  std::string json_path;
  // Crash-drill mode.
  pid_t kill_pid = 0;
  size_t kill_after = 0;  // fire SIGKILL once this many events are acked
  bool resume = false;
  std::string state_path;
};

/// The per-session workload: a generated execution's event stream,
/// truncated to the session's share of the event budget (a prefix of a
/// valid execution is a valid stream — exactly what a live client is
/// mid-way through).  The mutex serializes appends so the stream reaches
/// the server in order even when Zipf sends two threads to one session.
struct SessionWork {
  uint64_t id = 0;  // server-assigned
  std::vector<workload::TraceEvent> events;
  std::mutex mu;
  size_t cursor = 0;  // next event to append, under mu
  size_t acked = 0;   // events the server acknowledged, under mu
  service::SessionVerdict verdict;  // filled by the query phase
};

/// One measured run: throughput plus the latency distributions.
struct LoadResult {
  size_t events = 0;
  double seconds = 0;
  double throughput = 0;
  service::LatencyHistogram::Snapshot append;
  service::LatencyHistogram::Snapshot verdict;
  size_t mismatches = 0;
};

std::vector<workload::TraceEvent> GenerateSessionEvents(
    size_t quota, uint64_t seed, size_t commit_window, workload::AdtMix adt,
    uint32_t adt_instances) {
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kLayeredDag;
  spec.topology.depth = 3;
  spec.topology.branches = 2;
  spec.topology.fanout = 2;
  spec.execution.conflict_prob = 0.15;
  spec.execution.intra_weak_prob = 0.2;
  spec.execution.adt = adt;
  spec.execution.adt_instances = adt_instances;
  // Event count is a property of the generated execution, not a knob:
  // grow the root count until the stream covers the quota, then cut.
  uint32_t roots = 2;
  for (;;) {
    spec.topology.roots = roots;
    auto cs = workload::GenerateSystem(spec, seed);
    COMPTX_CHECK(cs.ok()) << cs.status().ToString();
    auto text = workload::SaveTrace(*cs);
    COMPTX_CHECK(text.ok()) << text.status().ToString();
    auto events = workload::ParseTraceEvents(*text);
    COMPTX_CHECK(events.ok()) << events.status().ToString();
    if (events->size() >= quota || roots >= 4096) {
      if (events->size() > quota) events->resize(quota);
      // Watermarks go in after the quota cut so they only cover roots
      // whose events all made it into the stream.
      return workload::InterleaveWatermarks(std::move(events).value(),
                                            commit_window);
    }
    roots *= 2;
  }
}

/// Offline ground truth: batch-replay the exact events the session got and
/// run the batch Comp-C check (validation off — a truncated stream is a
/// legitimate prefix, same as the online certifier sees it).
bool OfflineVerdict(const std::vector<workload::TraceEvent>& events,
                    uint64_t& accepted) {
  CompositeSystem cs;
  accepted = 0;
  for (const auto& event : events) {
    // Mirror the certifier's contract: an event the system rejects is
    // skipped, not fatal (the server counts it as rejected).
    if (workload::ApplyTraceEvent(cs, event).ok()) ++accepted;
  }
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  auto result = CheckCompC(cs, options);
  COMPTX_CHECK(result.ok()) << result.status().ToString();
  return result->correct;
}

/// Crash-drill state: everything --resume needs to regenerate the
/// deterministic per-session streams and pick the run back up with
/// identical framing.  Sessions are listed in generation order, so
/// stream i regenerates from seed + i with the stored quota.
struct DrillSession {
  uint64_t id = 0;     // server-assigned session id
  size_t planned = 0;  // full stream length
  size_t acked = 0;    // events acked before the kill (lower bound)
};

struct DrillState {
  uint64_t seed = 0;
  size_t quota = 0;
  size_t commit_window = 0;
  service::WireProtocol protocol = service::WireProtocol::kV1;
  size_t batch = 32;
  workload::AdtMix adt = workload::AdtMix::kNone;
  uint32_t adt_instances = 4;
  std::vector<DrillSession> sessions;
};

bool WriteDrillState(const std::string& path, const DrillState& state) {
  std::ofstream out(path);
  out << "comptx-load-state v2\n"
      << "seed " << state.seed << "\n"
      << "quota " << state.quota << "\n"
      << "protocol " << service::WireProtocolToString(state.protocol) << "\n"
      << "batch " << state.batch << "\n";
  if (state.commit_window != 0) {
    out << "commit_window " << state.commit_window << "\n";
  }
  if (state.adt != workload::AdtMix::kNone) {
    out << "adt " << workload::AdtMixToString(state.adt) << " "
        << state.adt_instances << "\n";
  }
  for (const DrillSession& s : state.sessions) {
    out << "session " << s.id << " " << s.planned << " " << s.acked << "\n";
  }
  return static_cast<bool>(out);
}

/// Accepts both state versions: v1 files (pre-protocol) leave the framing
/// fields at the caller's command-line values; v2 files override them so
/// the resume leg replays with exactly the framing the drill used.
bool ReadDrillState(const std::string& path, DrillState* state) {
  std::ifstream in(path);
  std::string header;
  if (!std::getline(in, header) || (header != "comptx-load-state v1" &&
                                    header != "comptx-load-state v2")) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "seed") {
      fields >> state->seed;
    } else if (key == "quota") {
      fields >> state->quota;
    } else if (key == "commit_window") {
      fields >> state->commit_window;
    } else if (key == "adt") {
      std::string name;
      fields >> name >> state->adt_instances;
      auto mix = workload::ParseAdtMix(name);
      if (!mix.ok() || state->adt_instances == 0) return false;
      state->adt = *mix;
    } else if (key == "protocol") {
      std::string name;
      fields >> name;
      auto protocol = service::ParseWireProtocol(name);
      if (!protocol.ok()) return false;
      state->protocol = *protocol;
    } else if (key == "batch") {
      fields >> state->batch;
      if (state->batch == 0) return false;
    } else if (key == "session") {
      DrillSession s;
      fields >> s.id >> s.planned >> s.acked;
      if (fields.fail()) return false;
      state->sessions.push_back(s);
    } else if (!key.empty()) {
      return false;
    }
    if (fields.fail()) return false;
  }
  return !state->sessions.empty();
}

/// The --resume leg of the crash drill: for every session in the state
/// file, ask the restarted server how far the recovered stream reaches,
/// prove no acked event was lost, append the unsent suffix and verify the
/// final verdict against an offline replay of the full stream.
int RunResume(const LoadOptions& opt) {
  DrillState state;
  state.protocol = opt.protocol;
  state.batch = opt.batch;
  state.adt = opt.adt;
  state.adt_instances = opt.adt_instances;
  if (!ReadDrillState(opt.state_path, &state)) {
    std::cerr << "cannot read drill state " << opt.state_path << "\n";
    return 2;
  }
  auto control = service::ServiceClient::Dial(opt.endpoint, state.protocol);
  if (!control.ok()) {
    std::cerr << "cannot connect to " << opt.endpoint.ToString() << ": "
              << control.status() << "\n";
    return 2;
  }
  size_t mismatches = 0;
  size_t resumed_events = 0;
  for (size_t i = 0; i < state.sessions.size(); ++i) {
    const DrillSession& s = state.sessions[i];
    const auto events =
        GenerateSessionEvents(state.quota, state.seed + i, state.commit_window,
                              state.adt, state.adt_instances);
    if (events.size() != s.planned) {
      std::cerr << "session " << s.id << ": regenerated stream has "
                << events.size() << " events, state says " << s.planned
                << " (seed/quota mismatch?)\n";
      return 2;
    }
    // The recovered position: every durably logged event was re-ingested
    // during recovery, so accepted+rejected is the stream cursor.  It may
    // exceed `acked` (a logged-but-unacked tail is legal) but may never
    // fall short — an acked event is a durable promise.
    auto verdict = control->Query(s.id);
    if (!verdict.ok()) {
      std::cerr << "LOST SESSION " << s.id
                << ": QUERY after restart failed: " << verdict.status()
                << "\n";
      ++mismatches;
      continue;
    }
    const uint64_t recovered =
        verdict->events_accepted + verdict->events_rejected;
    if (recovered < s.acked) {
      std::cerr << "ACKED LOSS session " << s.id << ": " << s.acked
                << " events were acked but only " << recovered
                << " survived recovery\n";
      ++mismatches;
      continue;
    }
    if (recovered > events.size()) {
      std::cerr << "session " << s.id << ": recovered " << recovered
                << " events, more than the " << events.size()
                << " the stream holds\n";
      ++mismatches;
      continue;
    }
    resumed_events += recovered;
    // Stream the unsent suffix, then close and compare against offline
    // ground truth for the whole stream.
    for (size_t cursor = recovered; cursor < events.size();) {
      const size_t n = std::min(state.batch, events.size() - cursor);
      std::vector<workload::TraceEvent> batch(
          events.begin() + cursor, events.begin() + cursor + n);
      auto queued = control->Append(s.id, batch);
      if (!queued.ok()) {
        std::cerr << "APPEND failed on session " << s.id << ": "
                  << queued.status() << "\n";
        return 2;
      }
      cursor += n;
    }
    auto final = control->Close(s.id);
    if (!final.ok()) {
      std::cerr << "CLOSE failed on session " << s.id << ": "
                << final.status() << "\n";
      return 2;
    }
    uint64_t accepted = 0;
    const bool expected = OfflineVerdict(events, accepted);
    if (expected != final->certifiable ||
        accepted != final->events_accepted) {
      ++mismatches;
      std::cerr << "MISMATCH session " << s.id << ": offline says "
                << (expected ? "certifiable" : "not certifiable") << " ("
                << accepted << " accepted), server says "
                << (final->certifiable ? "certifiable" : "not certifiable")
                << " (" << final->events_accepted << " accepted)\n";
    }
  }
  if (opt.send_shutdown) {
    Status status = control->Shutdown();
    if (!status.ok()) {
      std::cerr << "SHUTDOWN failed: " << status << "\n";
      return 2;
    }
  }
  std::cout << "resumed " << state.sessions.size() << " session(s) over "
            << service::WireProtocolToString(state.protocol) << ", "
            << resumed_events << " event(s) survived recovery, mismatches="
            << mismatches << "\n";
  return mismatches == 0 ? 0 : 1;
}

/// One full load-verify cycle at `rate` (0 = closed loop): opens fresh
/// sessions, streams every planned event, queries and closes each
/// session, and (when opt.verify) replays offline.  Returns the exit
/// code; fills `result` on success.  In kill mode the run stops at the
/// SIGKILL and the caller writes the drill state from `work`.
int RunLoad(const LoadOptions& opt, double rate,
            std::vector<std::unique_ptr<SessionWork>>& work,
            LoadResult* result) {
  size_t planned_events = 0;
  for (auto& w : work) planned_events += w->events.size();

  // Open every session up front on a control connection.
  auto control = service::ServiceClient::Dial(opt.endpoint, opt.protocol);
  if (!control.ok()) {
    std::cerr << "cannot connect to " << opt.endpoint.ToString() << ": "
              << control.status() << "\n";
    return 2;
  }
  for (auto& w : work) {
    auto id = control->Open();
    if (!id.ok()) {
      std::cerr << "OPEN failed: " << id.status() << "\n";
      return 2;
    }
    w->id = *id;
  }

  const bool kill_mode = opt.kill_pid != 0;

  // Load phase: every thread owns a connection, picks sessions through a
  // Zipf draw, and appends the chosen session's next batch.  A thread
  // landing on a finished session scans forward for a live one, so the
  // run ends exactly when every stream is fully appended.
  //
  // Open loop (rate > 0): batch k's send time is scheduled on a global
  // ticket clock at start + k*batch/rate, threads sleep until their
  // claimed tick, and latency runs from the intended time — a server
  // that falls behind shows up as tail latency, not as a quietly slowed
  // arrival process (coordinated omission).
  service::LatencyHistogram append_hist;
  std::atomic<size_t> remaining{planned_events};
  std::atomic<size_t> ticket{0};
  std::atomic<bool> failed{false};
  std::atomic<size_t> acked_total{0};
  std::atomic<bool> kill_fired{false};
  const ZipfGenerator zipf(opt.sessions, opt.theta);
  const Clock::time_point load_start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(opt.threads);
  for (size_t t = 0; t < opt.threads; ++t) {
    threads.emplace_back([&, t] {
      auto client = service::ServiceClient::Dial(opt.endpoint, opt.protocol);
      if (!client.ok()) {
        std::cerr << "thread " << t << " cannot connect: " << client.status()
                  << "\n";
        failed.store(true);
        return;
      }
      Rng rng(opt.seed ^ (0x9e3779b97f4a7c15ull * (t + 1)));
      while (remaining.load(std::memory_order_relaxed) > 0 && !failed.load() &&
             !kill_fired.load(std::memory_order_relaxed)) {
        Clock::time_point intended = Clock::now();
        if (rate > 0) {
          const size_t k = ticket.fetch_add(1, std::memory_order_relaxed);
          intended = load_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          double(k) * double(opt.batch) / rate));
          std::this_thread::sleep_until(intended);
        }
        const size_t start = static_cast<size_t>(zipf.Sample(rng));
        for (size_t probe = 0; probe < opt.sessions; ++probe) {
          SessionWork& w = *work[(start + probe) % opt.sessions];
          std::unique_lock<std::mutex> lock(w.mu);
          if (w.cursor >= w.events.size()) continue;
          const size_t n = std::min(opt.batch, w.events.size() - w.cursor);
          std::vector<workload::TraceEvent> batch(
              w.events.begin() + w.cursor, w.events.begin() + w.cursor + n);
          w.cursor += n;
          auto queued = client->Append(w.id, batch);
          if (!queued.ok()) {
            lock.unlock();
            // After the kill fires, in-flight appends die with the
            // connection — that is the drill working, not a failure.
            if (kill_fired.load()) return;
            std::cerr << "APPEND failed on session " << w.id << ": "
                      << queued.status() << "\n";
            failed.store(true);
            return;
          }
          // Acked while the session lock is still held, so the cursor
          // recorded in the drill state is exactly the acked prefix.
          w.acked = w.cursor;
          lock.unlock();
          append_hist.Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - intended)
                  .count()));
          const size_t total =
              acked_total.fetch_add(n, std::memory_order_relaxed) + n;
          if (kill_mode && total >= opt.kill_after &&
              !kill_fired.exchange(true)) {
            ::kill(opt.kill_pid, SIGKILL);
          }
          remaining.fetch_sub(n, std::memory_order_relaxed);
          break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double load_seconds =
      std::chrono::duration<double>(Clock::now() - load_start).count();
  if (failed.load()) return 2;

  if (kill_mode) {
    // The event budget can drain before the threshold is reached; the
    // drill still wants a dead server and a state file to resume from.
    if (!kill_fired.exchange(true)) ::kill(opt.kill_pid, SIGKILL);
    DrillState state;
    state.seed = opt.seed;
    state.quota = std::max<size_t>(1, opt.total_events / opt.sessions);
    state.commit_window = opt.commit_window;
    state.protocol = opt.protocol;
    state.batch = opt.batch;
    state.adt = opt.adt;
    state.adt_instances = opt.adt_instances;
    for (auto& w : work) {
      state.sessions.push_back(DrillSession{w->id, w->events.size(), w->acked});
    }
    if (!WriteDrillState(opt.state_path, state)) {
      std::cerr << "cannot write " << opt.state_path << "\n";
      return 2;
    }
    std::cout << "killed pid " << opt.kill_pid << " after "
              << acked_total.load() << " acked event(s); state in "
              << opt.state_path << "\n";
    return 0;
  }

  // Verdict phase: QUERY is the drain barrier — its latency includes
  // waiting for the session's queue to empty — then CLOSE frees the slot.
  service::LatencyHistogram verdict_hist;
  for (auto& w : work) {
    const Clock::time_point rpc_start = Clock::now();
    auto verdict = control->Query(w->id);
    verdict_hist.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              rpc_start)
            .count()));
    if (!verdict.ok()) {
      std::cerr << "QUERY failed on session " << w->id << ": "
                << verdict.status() << "\n";
      return 2;
    }
    w->verdict = *verdict;
    auto closed = control->Close(w->id);
    if (!closed.ok()) {
      std::cerr << "CLOSE failed on session " << w->id << ": "
                << closed.status() << "\n";
      return 2;
    }
    if (closed->certifiable != verdict->certifiable) {
      std::cerr << "session " << w->id
                << ": CLOSE verdict disagrees with QUERY\n";
      return 1;
    }
  }

  // Verify: replay each session's stream single-threaded through the
  // batch checker and demand verdict agreement.
  size_t mismatches = 0;
  if (opt.verify) {
    for (auto& w : work) {
      uint64_t accepted = 0;
      const bool expected = OfflineVerdict(w->events, accepted);
      if (expected != w->verdict.certifiable ||
          accepted != w->verdict.events_accepted) {
        ++mismatches;
        std::cerr << "MISMATCH session " << w->id << ": offline says "
                  << (expected ? "certifiable" : "not certifiable") << " ("
                  << accepted << " accepted), server says "
                  << (w->verdict.certifiable ? "certifiable"
                                             : "not certifiable")
                  << " (" << w->verdict.events_accepted << " accepted)\n";
      }
    }
  }

  result->events = planned_events;
  result->seconds = load_seconds;
  result->throughput =
      load_seconds > 0 ? double(planned_events) / load_seconds : 0;
  result->append = append_hist.Snap();
  result->verdict = verdict_hist.Snap();
  result->mismatches = mismatches;
  return mismatches == 0 ? 0 : 1;
}

std::vector<std::unique_ptr<SessionWork>> GenerateWork(
    size_t sessions, size_t events, uint64_t seed, size_t commit_window,
    workload::AdtMix adt, uint32_t adt_instances);

/// The --processes mode: fork N children, each running the full
/// sessions x threads load against events/N of the budget with a
/// distinct seed, then aggregate their results.  Children report over a
/// pipe — one "result" line plus the two latency histograms with full
/// bucket counts, so the parent's percentiles are computed on the exact
/// union of all samples.
int RunMultiProcess(const LoadOptions& opt) {
  const size_t n = opt.processes;
  std::vector<std::array<int, 2>> pipes(n);
  std::vector<pid_t> pids(n, -1);
  for (size_t p = 0; p < n; ++p) {
    if (pipe(pipes[p].data()) != 0) {
      std::cerr << "pipe failed\n";
      return 2;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "fork failed\n";
      return 2;
    }
    if (pid == 0) {
      close(pipes[p][0]);
      LoadOptions child = opt;
      child.processes = 1;
      child.total_events =
          std::max<size_t>(child.sessions, opt.total_events / n);
      child.seed = opt.seed + 104729ull * (p + 1);
      child.send_shutdown = false;
      child.json_path.clear();
      auto work = GenerateWork(child.sessions, child.total_events, child.seed,
                               child.commit_window, child.adt,
                               child.adt_instances);
      LoadResult result;
      const int code = RunLoad(child, child.rate, work, &result);
      std::ostringstream report;
      report << "result " << result.events << " " << result.seconds << " "
             << result.mismatches << "\n"
             << "append " << result.append.SerializeText() << "\n"
             << "verdict " << result.verdict.SerializeText() << "\n";
      const std::string text = report.str();
      size_t written = 0;
      while (written < text.size()) {
        const ssize_t w = write(pipes[p][1], text.data() + written,
                                text.size() - written);
        if (w <= 0) break;
        written += static_cast<size_t>(w);
      }
      close(pipes[p][1]);
      _exit(code);
    }
    pids[p] = pid;
    close(pipes[p][1]);
  }

  LoadResult total;
  size_t failures = 0;
  for (size_t p = 0; p < n; ++p) {
    std::string text;
    char buffer[4096];
    for (;;) {
      const ssize_t r = read(pipes[p][0], buffer, sizeof(buffer));
      if (r <= 0) break;
      text.append(buffer, static_cast<size_t>(r));
    }
    close(pipes[p][0]);
    int status = 0;
    waitpid(pids[p], &status, 0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
    if (code != 0) ++failures;
    std::istringstream lines(text);
    std::string line;
    bool parsed = false;
    LoadResult child;
    while (std::getline(lines, line)) {
      std::istringstream fields(line);
      std::string key;
      fields >> key;
      if (key == "result") {
        fields >> child.events >> child.seconds >> child.mismatches;
        parsed = !fields.fail();
      } else if (key == "append" || key == "verdict") {
        std::string rest;
        std::getline(fields, rest);
        auto snap = service::LatencyHistogram::Snapshot::ParseText(rest);
        if (!snap.has_value()) {
          parsed = false;
          break;
        }
        (key == "append" ? child.append : child.verdict) = *snap;
      }
    }
    if (!parsed) {
      std::cerr << "process " << p << " (pid " << pids[p]
                << ") reported no result (exit code " << code << ")\n";
      ++failures;
      continue;
    }
    total.events += child.events;
    total.seconds = std::max(total.seconds, child.seconds);
    total.mismatches += child.mismatches;
    total.append.Merge(child.append);
    total.verdict.Merge(child.verdict);
  }
  total.throughput =
      total.seconds > 0 ? double(total.events) / total.seconds : 0;

  if (opt.send_shutdown) {
    auto control = service::ServiceClient::Dial(opt.endpoint, opt.protocol);
    if (!control.ok() || !control->Shutdown().ok()) {
      std::cerr << "SHUTDOWN failed\n";
      return 2;
    }
  }

  std::cout << "processes=" << n << " sessions=" << opt.sessions
            << " threads=" << opt.threads << " events=" << total.events
            << " theta=" << opt.theta << " protocol="
            << service::WireProtocolToString(opt.protocol)
            << " batch=" << opt.batch << "\n"
            << "load_seconds=" << total.seconds
            << " events_per_second=" << total.throughput << "\n"
            << "append_us: " << total.append.Summary() << "\n"
            << "verdict_us: " << total.verdict.Summary() << "\n"
            << "mismatches=" << total.mismatches
            << (opt.verify ? "" : " (verification disabled)") << "\n";

  if (!opt.json_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"processes\": " << n << ",\n"
         << "  \"sessions\": " << opt.sessions << ",\n"
         << "  \"threads\": " << opt.threads << ",\n"
         << "  \"events\": " << total.events << ",\n"
         << "  \"theta\": " << opt.theta << ",\n"
         << "  \"protocol\": \""
         << service::WireProtocolToString(opt.protocol) << "\",\n"
         << "  \"batch\": " << opt.batch << ",\n"
         << "  \"load_seconds\": " << total.seconds << ",\n"
         << "  \"events_per_second\": " << total.throughput << ",\n"
         << "  \"append_p50_us\": " << total.append.p50 << ",\n"
         << "  \"append_p95_us\": " << total.append.p95 << ",\n"
         << "  \"append_p99_us\": " << total.append.p99 << ",\n"
         << "  \"verdict_p50_us\": " << total.verdict.p50 << ",\n"
         << "  \"verdict_p95_us\": " << total.verdict.p95 << ",\n"
         << "  \"verdict_p99_us\": " << total.verdict.p99 << ",\n"
         << "  \"mismatches\": " << total.mismatches << ",\n"
         << "  \"failed_processes\": " << failures << "\n"
         << "}\n";
    std::ofstream out(opt.json_path);
    out << json.str();
    if (!out) {
      std::cerr << "cannot write " << opt.json_path << "\n";
      return 2;
    }
  }
  if (failures > 0) return 2;
  return total.mismatches == 0 ? 0 : 1;
}

std::vector<std::unique_ptr<SessionWork>> GenerateWork(
    size_t sessions, size_t events, uint64_t seed, size_t commit_window,
    workload::AdtMix adt, uint32_t adt_instances) {
  const size_t quota = std::max<size_t>(1, events / sessions);
  std::vector<std::unique_ptr<SessionWork>> work;
  work.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    auto w = std::make_unique<SessionWork>();
    w->events =
        GenerateSessionEvents(quota, seed + s, commit_window, adt,
                              adt_instances);
    work.push_back(std::move(w));
  }
  return work;
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions opt;
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
      PrintToolVersion("comptx_load");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else if (arg == "--host") {
      opt.endpoint.host = next("--host");
    } else if (arg == "--port") {
      opt.endpoint.port =
          static_cast<int>(UintFlagOrExit("--port", next("--port"), 0, 65535));
    } else if (arg == "--unix") {
      opt.endpoint.unix_path = next("--unix");
    } else if (arg == "--sessions") {
      opt.sessions = UintFlagOrExit("--sessions", next("--sessions"));
    } else if (arg == "--threads") {
      opt.threads = UintFlagOrExit("--threads", next("--threads"));
    } else if (arg == "--events") {
      opt.total_events = UintFlagOrExit("--events", next("--events"));
    } else if (arg == "--batch") {
      opt.batch = UintFlagOrExit("--batch", next("--batch"));
    } else if (arg == "--processes") {
      opt.processes = UintFlagOrExit("--processes", next("--processes"), 1);
    } else if (arg == "--protocol") {
      auto protocol = service::ParseWireProtocol(next("--protocol"));
      if (!protocol.ok()) {
        std::cerr << "--protocol: " << protocol.status().message() << "\n";
        return 2;
      }
      opt.protocol = *protocol;
    } else if (arg == "--theta") {
      opt.theta = DoubleFlagOrExit("--theta", next("--theta"));
    } else if (arg == "--adt") {
      auto mix = workload::ParseAdtMix(next("--adt"));
      if (!mix.ok()) {
        std::cerr << "--adt: " << mix.status().message() << "\n";
        return 2;
      }
      opt.adt = *mix;
    } else if (arg == "--adt-instances") {
      opt.adt_instances = static_cast<uint32_t>(UintFlagOrExit(
          "--adt-instances", next("--adt-instances"), 1, UINT32_MAX));
    } else if (arg == "--commit-window") {
      opt.commit_window =
          UintFlagOrExit("--commit-window", next("--commit-window"));
    } else if (arg == "--rate") {
      opt.rate = DoubleFlagOrExit("--rate", next("--rate"));
    } else if (arg == "--rates") {
      std::istringstream list(next("--rates"));
      std::string token;
      while (std::getline(list, token, ',')) {
        const double rate = DoubleFlagOrExit("--rates", token);
        if (rate <= 0) {
          std::cerr << "--rates needs positive events/sec values\n";
          return 2;
        }
        opt.rates.push_back(rate);
      }
    } else if (arg == "--seed") {
      opt.seed = UintFlagOrExit("--seed", next("--seed"));
    } else if (arg == "--no-verify") {
      opt.verify = false;
    } else if (arg == "--json") {
      opt.json_path = next("--json");
    } else if (arg == "--shutdown") {
      opt.send_shutdown = true;
    } else if (arg == "--kill-pid") {
      opt.kill_pid = static_cast<pid_t>(
          UintFlagOrExit("--kill-pid", next("--kill-pid"), 1, INT32_MAX));
    } else if (arg == "--kill-after") {
      opt.kill_after = UintFlagOrExit("--kill-after", next("--kill-after"));
    } else if (arg == "--state") {
      opt.state_path = next("--state");
    } else if (arg == "--resume") {
      opt.resume = true;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return Usage(2);
    }
  }
  if (opt.sessions == 0 || opt.threads == 0 || opt.batch == 0 ||
      opt.total_events == 0) {
    std::cerr << "--sessions/--threads/--events/--batch must be positive\n";
    return 2;
  }
  if (opt.endpoint.unix_path.empty() && opt.endpoint.port == 0) {
    std::cerr << "need --port or --unix (where is the server?)\n";
    return 2;
  }
  const bool kill_mode = opt.kill_pid != 0 || opt.kill_after != 0;
  if (kill_mode && (opt.kill_pid <= 0 || opt.kill_after == 0 ||
                    opt.state_path.empty())) {
    std::cerr << "kill mode needs --kill-pid, --kill-after and --state\n";
    return 2;
  }
  if (kill_mode && !opt.rates.empty()) {
    std::cerr << "--rates and the kill drill are mutually exclusive\n";
    return 2;
  }
  if (opt.resume) {
    if (opt.state_path.empty() || kill_mode) {
      std::cerr << "--resume needs --state (and excludes --kill-pid)\n";
      return 2;
    }
    return RunResume(opt);
  }

  if (opt.processes > 1) {
    if (kill_mode || !opt.rates.empty()) {
      std::cerr << "--processes excludes --rates and the kill drill\n";
      return 2;
    }
    return RunMultiProcess(opt);
  }

  // Latency-under-throughput sweep: split the event budget across the
  // rate points; each point streams into its own fresh sessions.
  if (!opt.rates.empty()) {
    const size_t per_point =
        std::max<size_t>(opt.sessions, opt.total_events / opt.rates.size());
    std::vector<LoadResult> rows;
    std::cout << "rate_target  rate_achieved  append_p50_us  append_p95_us"
                 "  append_p99_us\n";
    for (size_t r = 0; r < opt.rates.size(); ++r) {
      auto work = GenerateWork(opt.sessions, per_point,
                               opt.seed + 7919 * (r + 1), opt.commit_window,
                               opt.adt, opt.adt_instances);
      LoadResult result;
      const int code = RunLoad(opt, opt.rates[r], work, &result);
      if (code == 2) return 2;
      rows.push_back(result);
      std::cout << opt.rates[r] << "  " << result.throughput << "  "
                << result.append.p50 << "  " << result.append.p95 << "  "
                << result.append.p99
                << (result.mismatches > 0 ? "  MISMATCHES!" : "") << "\n";
    }
    size_t mismatches = 0;
    for (const LoadResult& row : rows) mismatches += row.mismatches;
    if (opt.send_shutdown) {
      auto control = service::ServiceClient::Dial(opt.endpoint, opt.protocol);
      if (!control.ok() || !control->Shutdown().ok()) {
        std::cerr << "SHUTDOWN failed\n";
        return 2;
      }
    }
    if (!opt.json_path.empty()) {
      std::ostringstream json;
      json << "{\n  \"protocol\": \""
           << service::WireProtocolToString(opt.protocol) << "\",\n"
           << "  \"batch\": " << opt.batch << ",\n  \"sweep\": [\n";
      for (size_t r = 0; r < rows.size(); ++r) {
        json << "    {\"rate\": " << opt.rates[r]
             << ", \"events_per_second\": " << rows[r].throughput
             << ", \"append_p50_us\": " << rows[r].append.p50
             << ", \"append_p95_us\": " << rows[r].append.p95
             << ", \"append_p99_us\": " << rows[r].append.p99
             << ", \"mismatches\": " << rows[r].mismatches << "}"
             << (r + 1 < rows.size() ? "," : "") << "\n";
      }
      json << "  ]\n}\n";
      std::ofstream out(opt.json_path);
      out << json.str();
      if (!out) {
        std::cerr << "cannot write " << opt.json_path << "\n";
        return 2;
      }
    }
    return mismatches == 0 ? 0 : 1;
  }

  auto work = GenerateWork(opt.sessions, opt.total_events, opt.seed,
                           opt.commit_window, opt.adt, opt.adt_instances);
  LoadResult result;
  const int code = RunLoad(opt, opt.rate, work, &result);
  if (code != 0 && result.events == 0) return code;  // connect/usage failure
  if (opt.kill_pid != 0) return code;                // drill state written

  if (opt.send_shutdown) {
    auto control = service::ServiceClient::Dial(opt.endpoint, opt.protocol);
    if (!control.ok() || !control->Shutdown().ok()) {
      std::cerr << "SHUTDOWN failed\n";
      return 2;
    }
  }

  std::cout << "sessions=" << opt.sessions << " threads=" << opt.threads
            << " events=" << result.events << " theta=" << opt.theta
            << " protocol=" << service::WireProtocolToString(opt.protocol)
            << " batch=" << opt.batch << "\n"
            << "load_seconds=" << result.seconds
            << " events_per_second=" << result.throughput << "\n"
            << "append_us: " << result.append.Summary() << "\n"
            << "verdict_us: " << result.verdict.Summary() << "\n"
            << "mismatches=" << result.mismatches
            << (opt.verify ? "" : " (verification disabled)") << "\n";

  if (!opt.json_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"sessions\": " << opt.sessions << ",\n"
         << "  \"threads\": " << opt.threads << ",\n"
         << "  \"events\": " << result.events << ",\n"
         << "  \"theta\": " << opt.theta << ",\n"
         << "  \"protocol\": \""
         << service::WireProtocolToString(opt.protocol) << "\",\n"
         << "  \"batch\": " << opt.batch << ",\n"
         << "  \"rate\": " << opt.rate << ",\n"
         << "  \"load_seconds\": " << result.seconds << ",\n"
         << "  \"events_per_second\": " << result.throughput << ",\n"
         << "  \"append_p50_us\": " << result.append.p50 << ",\n"
         << "  \"append_p95_us\": " << result.append.p95 << ",\n"
         << "  \"append_p99_us\": " << result.append.p99 << ",\n"
         << "  \"verdict_p50_us\": " << result.verdict.p50 << ",\n"
         << "  \"verdict_p95_us\": " << result.verdict.p95 << ",\n"
         << "  \"verdict_p99_us\": " << result.verdict.p99 << ",\n"
         << "  \"mismatches\": " << result.mismatches << "\n"
         << "}\n";
    std::ofstream out(opt.json_path);
    out << json.str();
    if (!out) {
      std::cerr << "cannot write " << opt.json_path << "\n";
      return 2;
    }
  }
  return code;
}
