// Experiment E15 (DESIGN.md §13 / EXPERIMENTS.md): flat per-event cost
// over a long-lived session.
//
// One certifier session ingests a 10M-event streaming-window workload —
// roots arrive forever, each conflicting with (and ordered after) its
// predecessor, and a cumulative commit_through watermark trails the
// stream by a fixed window so sealing + commit pruning run continuously.
// The driver samples the per-event cost at logarithmically spaced
// checkpoints (100k, 316k, 1M, 3.16M, 10M) over the *preceding* segment,
// so each sample is a steady-state rate, not a lifetime average.
//
// The headline claim: the hot path is O(window), independent of session
// lifetime — the per-event cost at 10M events is within 1.5x of the cost
// at 100k events, and live_nodes stays bounded by the window while
// pruned_nodes grows with the stream.  A certifier without pruning (or
// with the pre-rewrite O(all-sealed) prune worklist) fails this: its
// per-event cost grows with total session length.
//
// Events are fed through IngestBatch in service-sized batches — the same
// path the server's drain worker uses.
//
// The session runs bench::kRepeats times; each checkpoint reports the
// median and quartiles of its segment's per-event cost over the runs
// (bench/harness.h).
//
// Memory and recovery cost: in the first run each checkpoint also records
// the process's peak RSS (VmHWM), the size of the session's encoded
// durability snapshot (DESIGN.md §11.3) and the time to decode + restore
// it.  The session holds only its live window, so all three stay flat:
// snapshot bytes and median restore time at the last checkpoint must be
// within 2x of the first.
//
// Correctness cross-check: a second certifier with pruning disabled
// ingests the same stream (at a small scale only; it is O(total) by
// design) and must agree with the pruned session's verdict.
//
// Usage: bench_longsession [output.json] [--events N] [--window N]
//                          [--batch N]

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "durability/snapshot.h"
#include "online/certifier.h"
#include "online/state_io.h"
#include "util/cli_flags.h"
#include "util/logging.h"
#include "workload/event_streams.h"
#include "workload/trace.h"

#include "harness.h"

namespace {

using namespace comptx;  // NOLINT
using bench::Clock;
using bench::MicrosSince;

/// Peak resident set of this process so far, in KiB (0 if unknown).
uint64_t ReadVmHwmKb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      uint64_t kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

/// Encodes `certifier`'s snapshot; returns its size and sets `restore_us`
/// to the time one decode + restore of it takes.
size_t MeasureSnapshot(const online::Certifier& certifier,
                       const online::CertifierOptions& options,
                       bench::Stats* restore_us) {
  durability::Snapshot snapshot;
  auto state = online::CaptureCertifierState(certifier);
  COMPTX_CHECK(state.ok()) << state.status().ToString();
  snapshot.state = std::move(state).value();
  const std::string bytes = durability::EncodeSnapshot(snapshot);
  *restore_us = bench::TimeUs([&] {
    auto decoded = durability::DecodeSnapshot(bytes);
    COMPTX_CHECK(decoded.ok()) << decoded.status().ToString();
    auto restored = online::RestoreCertifierState(decoded->state, options);
    COMPTX_CHECK(restored.ok()) << restored.status().ToString();
  });
  return bytes.size();
}

/// One checkpoint of one run.  The segment time is measured in every run;
/// the rest only in the first.
struct Checkpoint {
  uint64_t events = 0;          // cumulative events ingested
  double segment_us = 0;        // time over the preceding segment
  uint64_t segment_events = 0;  // events in that segment
  uint64_t live_nodes = 0;
  uint64_t pruned_nodes = 0;
  uint64_t prune_passes = 0;
  bool certifiable = false;
  uint64_t vm_hwm_kb = 0;       // process peak RSS so far
  size_t snapshot_bytes = 0;    // encoded durability snapshot
  bench::Stats restore_us;      // decode + restore of it

  double PerEventUs() const {
    return segment_events == 0 ? 0 : segment_us / double(segment_events);
  }
};

/// One session of `total_events` through IngestBatch, checkpointed at
/// `marks`; `measure` adds the first-run-only fields.
std::vector<Checkpoint> RunSession(const std::vector<uint64_t>& marks,
                                   uint32_t window, size_t batch,
                                   bool measure) {
  online::CertifierOptions options;
  options.auto_prune = true;
  online::Certifier certifier(options);
  workload::WindowChain stream(window);
  std::vector<workload::TraceEvent> chunk;
  std::vector<Checkpoint> checkpoints;
  uint64_t ingested = 0;
  uint64_t segment_start_events = 0;
  Clock::time_point segment_start = Clock::now();
  for (const uint64_t mark : marks) {
    while (ingested < mark) {
      chunk.clear();
      while (chunk.size() < batch && ingested + chunk.size() < mark) {
        stream.NextRoot(chunk);
      }
      const size_t rejected = certifier.IngestBatch(chunk);
      COMPTX_CHECK(rejected == 0) << rejected << " events rejected";
      ingested += chunk.size();
    }
    Checkpoint cp;
    cp.segment_us = MicrosSince(segment_start);
    cp.events = ingested;
    cp.segment_events = ingested - segment_start_events;
    const online::CertifierStats stats = certifier.Stats();
    cp.live_nodes = stats.live_nodes;
    cp.pruned_nodes = stats.pruned_nodes;
    cp.prune_passes = stats.prune_passes;
    cp.certifiable = certifier.Certifiable();
    if (measure) {
      cp.vm_hwm_kb = ReadVmHwmKb();
      cp.snapshot_bytes = MeasureSnapshot(certifier, options, &cp.restore_us);
    }
    checkpoints.push_back(cp);
    segment_start_events = ingested;
    segment_start = Clock::now();
  }
  return checkpoints;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  std::string out_path = "BENCH_longsession.json";
  uint64_t total_events = 10'000'000;
  uint32_t window = 16;
  size_t batch = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--events") {
      total_events = UintFlagOrExit(arg, next(), 1);
    } else if (arg == "--window") {
      window =
          static_cast<uint32_t>(UintFlagOrExit(arg, next(), 0, UINT32_MAX));
    } else if (arg == "--batch") {
      batch = UintFlagOrExit(arg, next(), 1);
    } else {
      out_path = arg;
    }
  }

  // Log-spaced sample points ending at total_events: total/100, total/10x
  // steps (100k, 316k, 1M, 3.16M, 10M for the default budget).
  std::vector<uint64_t> marks;
  for (double m = double(total_events) / 100.0; m < double(total_events) * 0.99;
       m *= 3.16227766) {
    marks.push_back(uint64_t(m));
  }
  marks.push_back(total_events);

  std::vector<std::vector<Checkpoint>> runs;
  for (size_t r = 0; r < bench::kRepeats; ++r) {
    runs.push_back(RunSession(marks, window, batch, r == 0));
  }
  const std::vector<Checkpoint>& checkpoints = runs.front();
  // Per checkpoint, the per-event cost of its segment over the runs.
  std::vector<bench::Stats> per_event_us;
  for (size_t c = 0; c < marks.size(); ++c) {
    std::vector<double> samples;
    for (const auto& run : runs) samples.push_back(run[c].PerEventUs());
    per_event_us.push_back(bench::Summarize(std::move(samples)));
  }

  // Unpruned cross-check: same stream shape at a deliberately small
  // scale (an unpruned certifier pays O(live) = O(total) per event, so
  // replaying a full checkpoint would be quadratic), pruned vs unpruned
  // verdicts must agree.  The soak test does the deep version of this at
  // every sampled prefix; the bench keeps one scale as a tripwire.
  bool crosscheck_agrees = true;
  {
    constexpr uint64_t kCrosscheckEvents = 8000;
    online::CertifierOptions unpruned;
    unpruned.auto_prune = false;
    online::Certifier reference(unpruned);
    online::Certifier pruned;
    workload::WindowChain replay(window);
    std::vector<workload::TraceEvent> events;
    while (events.size() < kCrosscheckEvents) {
      replay.NextRoot(events);
    }
    for (const auto& event : events) {
      Status status = reference.Ingest(event);
      COMPTX_CHECK(status.ok()) << status.ToString();
      status = pruned.Ingest(event);
      COMPTX_CHECK(status.ok()) << status.ToString();
    }
    crosscheck_agrees = reference.Certifiable() == pruned.Certifiable();
  }

  const Checkpoint& first = checkpoints.front();
  const Checkpoint& last = checkpoints.back();
  const double cost_ratio =
      per_event_us.back().median / per_event_us.front().median;
  // The flatness criterion from EXPERIMENTS.md E15.  The window holds
  // `window` roots of 2 nodes each plus the in-flight root; live_nodes
  // must stay within a small multiple of that, independent of lifetime.
  const bool flat = cost_ratio <= 1.5;
  const uint64_t window_nodes = uint64_t(window + 1) * 2;
  bool live_bounded = true;
  bool all_certifiable = true;
  for (const auto& run : runs) {
    for (const Checkpoint& cp : run) {
      live_bounded = live_bounded && cp.live_nodes <= 2 * window_nodes;
      all_certifiable = all_certifiable && cp.certifiable;
    }
  }
  const double snapshot_ratio =
      double(last.snapshot_bytes) / double(first.snapshot_bytes);
  const double restore_ratio =
      last.restore_us.median / first.restore_us.median;
  const bool snapshot_flat = snapshot_ratio <= 2.0 && restore_ratio <= 2.0;

  std::vector<bench::Json> rows;
  for (size_t c = 0; c < checkpoints.size(); ++c) {
    const Checkpoint& cp = checkpoints[c];
    bench::AddRow(rows, bench::Json()
                            .Set("events", cp.events)
                            .Set("segment_events", cp.segment_events)
                            .Set("per_event_us", per_event_us[c])
                            .Set("live_nodes", cp.live_nodes)
                            .Set("pruned_nodes", cp.pruned_nodes)
                            .Set("prune_passes", cp.prune_passes)
                            .Set("certifiable", cp.certifiable)
                            .Set("vm_hwm_kb", cp.vm_hwm_kb)
                            .Set("snapshot_bytes", cp.snapshot_bytes)
                            .Set("restore_us", cp.restore_us));
  }
  const int code = bench::WriteReport(
      run_start, out_path, "E15_long_session",
      bench::Json()
          .Set("workload", "streaming_window_chain")
          .Set("total_events", last.events)
          .Set("commit_window_roots", window)
          .Set("ingest_batch", batch)
          .Set("cost_ratio_last_over_first", cost_ratio)
          .Set("flat_hot_path", flat)
          .Set("live_nodes_bounded_by_window", live_bounded)
          .Set("snapshot_bytes_ratio_last_over_first", snapshot_ratio)
          .Set("restore_us_ratio_last_over_first", restore_ratio)
          .Set("snapshot_and_restore_flat", snapshot_flat)
          .Set("all_checkpoints_certifiable", all_certifiable)
          .Set("unpruned_crosscheck_agrees", crosscheck_agrees)
          .Set("checkpoints", rows));
  return code == 0 && flat && live_bounded && all_certifiable &&
                 crosscheck_agrees && snapshot_flat
             ? 0
             : 1;
}
