// Experiment E10 (DESIGN.md / EXPERIMENTS.md): online incremental
// certification vs batch re-checking.
//
// For growing executions the driver replays the same event stream two
// ways: once through online::Certifier (one incremental patch per event)
// and once through "batch-per-event" (re-running CheckCompC on the full
// prefix after every event — what a system without the online subsystem
// would have to do for a continuous verdict).  The headline claim is that
// the amortized online cost per event grows strictly slower than the
// batch re-check cost per event as executions get larger.
//
// Plain chrono driver (no google-benchmark) so the output is a single
// machine-readable JSON document, committed as BENCH_online.json.
//
// Usage: bench_online [output.json]

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/correctness.h"
#include "online/certifier.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT
using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct Row {
  uint32_t roots = 0;
  size_t events = 0;
  size_t nodes = 0;
  uint32_t order = 0;
  bool verdict = false;
  bool agreement = false;
  double online_total_us = 0;
  double batch_total_us = 0;
  size_t certifiable_prefix = 0;  // longest prefix the engine accepts
  uint64_t pruned_nodes = 0;
  size_t live_nodes_after_commit = 0;

  double OnlinePerEvent() const {
    return events == 0 ? 0 : online_total_us / double(events);
  }
  double BatchPerEvent() const {
    return events == 0 ? 0 : batch_total_us / double(events);
  }
};

std::vector<workload::TraceEvent> MakeEvents(uint32_t roots, uint64_t seed,
                                             size_t& nodes) {
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
  nodes = cs->NodeCount();
  auto text = workload::SaveTrace(*cs);
  COMPTX_CHECK(text.ok());
  auto events = workload::ParseTraceEvents(*text);
  COMPTX_CHECK(events.ok());
  return std::move(events).value();
}

Row RunSize(uint32_t roots, uint64_t seed) {
  Row row;
  row.roots = roots;
  std::vector<workload::TraceEvent> events = MakeEvents(roots, seed, row.nodes);
  row.events = events.size();

  // Online: one certifier session ingesting the whole stream (best of 3
  // passes to damp scheduling noise).
  bool online_verdict = false;
  uint32_t online_order = 0;
  for (int rep = 0; rep < 3; ++rep) {
    online::Certifier certifier;
    Clock::time_point start = Clock::now();
    for (const auto& event : events) {
      Status status = certifier.Ingest(event);
      COMPTX_CHECK(status.ok()) << status.ToString();
    }
    bool verdict = certifier.Certifiable();
    double us = MicrosSince(start);
    if (rep == 0 || us < row.online_total_us) row.online_total_us = us;
    online_verdict = verdict;
    online_order = certifier.Verdict().order;
  }
  row.verdict = online_verdict;
  row.order = online_order;

  // Batch-per-event: re-run CheckCompC on the accumulated prefix after
  // every event (validation off: prefixes are legitimately incomplete).
  CompositeSystem mirror;
  bool batch_verdict = true;
  Clock::time_point start = Clock::now();
  for (const auto& event : events) {
    Status status = workload::ApplyTraceEvent(mirror, event);
    COMPTX_CHECK(status.ok()) << status.ToString();
    ReductionOptions options;
    options.validate = false;
    options.keep_fronts = false;
    auto result = CheckCompC(mirror, options);
    COMPTX_CHECK(result.ok()) << result.status().ToString();
    batch_verdict = result->correct;
  }
  row.batch_total_us = MicrosSince(start);
  row.agreement = (batch_verdict == online_verdict);

  // Pruning: measured on the longest *certifiable* prefix — once
  // certification fails the engine keeps everything as failure evidence,
  // so pruning an uncertifiable random stream releases nothing (the
  // pruned_nodes: 0 rows earlier revisions committed).  Pruning is a
  // live-session memory optimization; the certifiable prefix is exactly
  // the regime it exists for.  Sealing goes through one commit_through
  // watermark, the same cumulative event long-lived clients send.
  {
    online::Certifier probe;
    row.certifiable_prefix = events.size();
    for (size_t i = 0; i < events.size(); ++i) {
      (void)probe.Ingest(events[i]);
      if (!probe.Certifiable()) {
        row.certifiable_prefix = i;
        break;
      }
    }
    online::Certifier certifier;
    for (size_t i = 0; i < row.certifiable_prefix; ++i) {
      Status status = certifier.Ingest(events[i]);
      COMPTX_CHECK(status.ok()) << status.ToString();
    }
    workload::TraceEvent mark;
    mark.kind = workload::TraceEventKind::kCommitThrough;
    mark.a = static_cast<uint32_t>(certifier.system().Roots().size());
    Status status = certifier.Ingest(mark);
    COMPTX_CHECK(status.ok()) << status.ToString();
    certifier.Prune();
    online::CertifierStats stats = certifier.Stats();
    row.pruned_nodes = stats.pruned_nodes;
    row.live_nodes_after_commit = stats.live_nodes;
  }
  return row;
}

// Streaming-window scenario: roots arrive forever on one schedule, each
// conflicting (and weak-output-ordered) with its predecessor's leaf, and
// every root is committed as soon as its successor is in.  The execution
// is certifiable throughout; commit pruning keeps the *live* state a
// bounded window while the total system grows without bound — the memory
// story of the online subsystem.
struct WindowRow {
  uint32_t roots = 0;
  size_t events = 0;
  size_t nodes = 0;
  bool verdict = false;
  double online_total_us = 0;
  double batch_final_check_us = 0;  // one batch run on the full system
  uint64_t pruned_nodes = 0;
  size_t live_nodes = 0;
  uint64_t prune_passes = 0;

  double OnlinePerEvent() const {
    return events == 0 ? 0 : online_total_us / double(events);
  }
};

WindowRow RunWindow(uint32_t roots) {
  using workload::TraceEvent;
  using workload::TraceEventKind;
  WindowRow row;
  row.roots = roots;

  std::vector<TraceEvent> events;
  TraceEvent e;
  e.kind = TraceEventKind::kSchedule;
  e.name = "S";
  events.push_back(e);
  uint32_t prev_leaf = kInvalidIndex;
  uint32_t prev_root = kInvalidIndex;
  uint32_t next_id = 0;
  for (uint32_t i = 0; i < roots; ++i) {
    e = {};
    e.kind = TraceEventKind::kRoot;
    e.schedule = 0;
    e.name = "T" + std::to_string(i);
    events.push_back(e);
    const uint32_t root = next_id++;
    e = {};
    e.kind = TraceEventKind::kLeaf;
    e.parent = root;
    e.name = "x" + std::to_string(i);
    events.push_back(e);
    const uint32_t leaf = next_id++;
    if (prev_leaf != kInvalidIndex) {
      e = {};
      e.kind = TraceEventKind::kConflict;
      e.a = prev_leaf;
      e.b = leaf;
      events.push_back(e);
      e.kind = TraceEventKind::kWeakOutput;
      events.push_back(e);
      // The predecessor is finished and fully ordered: commit it.
      e = {};
      e.kind = TraceEventKind::kCommit;
      e.parent = prev_root;
      events.push_back(e);
    }
    prev_leaf = leaf;
    prev_root = root;
  }
  row.events = events.size();

  online::Certifier certifier;
  Clock::time_point start = Clock::now();
  for (const TraceEvent& event : events) {
    Status status = certifier.Ingest(event);
    COMPTX_CHECK(status.ok()) << status.ToString();
  }
  row.online_total_us = MicrosSince(start);
  row.verdict = certifier.Certifiable();
  row.nodes = certifier.system().NodeCount();

  online::CertifierStats stats = certifier.Stats();
  row.pruned_nodes = stats.pruned_nodes;
  row.live_nodes = stats.live_nodes;
  row.prune_passes = stats.prune_passes;

  // Reference point: ONE batch re-check on the accumulated system (an
  // online consumer would pay this per event without src/online).  The
  // certifier released its committed subtrees, so batch gets its own copy.
  CompositeSystem accumulated;
  for (const TraceEvent& event : events) {
    COMPTX_CHECK(workload::ApplyTraceEvent(accumulated, event).ok());
  }
  start = Clock::now();
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  auto result = CheckCompC(accumulated, options);
  COMPTX_CHECK(result.ok());
  COMPTX_CHECK(result->correct == row.verdict);
  row.batch_final_check_us = MicrosSince(start);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_online.json";
  const std::vector<uint32_t> sizes = {4, 8, 16, 32, 64};
  std::vector<Row> rows;
  for (uint32_t roots : sizes) {
    rows.push_back(RunSize(roots, 20260806 + roots));
    const Row& r = rows.back();
    std::cout << "roots=" << r.roots << " events=" << r.events
              << " online/event=" << r.OnlinePerEvent() << "us"
              << " batch/event=" << r.BatchPerEvent() << "us"
              << " speedup=" << r.BatchPerEvent() / r.OnlinePerEvent()
              << " pruned=" << r.pruned_nodes << "@" << r.certifiable_prefix
              << " agreement=" << (r.agreement ? "yes" : "NO") << "\n";
  }

  const std::vector<uint32_t> window_sizes = {256, 1024, 4096};
  std::vector<WindowRow> window_rows;
  for (uint32_t roots : window_sizes) {
    window_rows.push_back(RunWindow(roots));
    const WindowRow& w = window_rows.back();
    std::cout << "window roots=" << w.roots << " events=" << w.events
              << " online/event=" << w.OnlinePerEvent() << "us"
              << " live=" << w.live_nodes << "/" << w.nodes
              << " pruned=" << w.pruned_nodes
              << " one-batch-check=" << w.batch_final_check_us << "us"
              << " certifiable=" << (w.verdict ? "yes" : "NO") << "\n";
  }

  // The claim: the online per-event cost grows strictly slower than the
  // batch per-event cost, i.e. the speedup is strictly increasing in the
  // execution size.
  bool grows_slower = true;
  for (size_t i = 1; i < rows.size(); ++i) {
    double prev = rows[i - 1].BatchPerEvent() / rows[i - 1].OnlinePerEvent();
    double cur = rows[i].BatchPerEvent() / rows[i].OnlinePerEvent();
    if (cur <= prev) grows_slower = false;
  }
  bool all_agree = true;
  for (const Row& r : rows) all_agree = all_agree && r.agreement;
  // Guard against regressing the prune measurement back into a no-op.
  bool pruning_exercised = true;
  for (const Row& r : rows) pruning_exercised &= r.pruned_nodes > 0;
  bool window_ok = true;
  for (const WindowRow& w : window_rows) {
    window_ok = window_ok && w.verdict && w.live_nodes < w.nodes / 4;
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"experiment\": \"E10_online_certification\",\n"
       << "  \"topology\": \"layered_dag\",\n"
       << "  \"depth\": 3,\n"
       << "  \"conflict_prob\": 0.15,\n"
       << "  \"threads\": " << ThreadPool::Global().ThreadCount() << ",\n"
       << "  \"per_event_cost_grows_slower_than_batch\": "
       << (grows_slower ? "true" : "false") << ",\n"
       << "  \"all_prefix_verdicts_agree\": " << (all_agree ? "true" : "false")
       << ",\n"
       << "  \"pruning_exercised_on_certifiable_prefix\": "
       << (pruning_exercised ? "true" : "false") << ",\n"
       << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"roots\": " << r.roots << ", \"events\": " << r.events
         << ", \"nodes\": " << r.nodes << ", \"order\": " << r.order
         << ", \"certifiable\": " << (r.verdict ? "true" : "false")
         << ", \"online_total_us\": " << r.online_total_us
         << ", \"online_per_event_us\": " << r.OnlinePerEvent()
         << ", \"batch_total_us\": " << r.batch_total_us
         << ", \"batch_per_event_us\": " << r.BatchPerEvent()
         << ", \"speedup\": " << r.BatchPerEvent() / r.OnlinePerEvent()
         << ", \"certifiable_prefix\": " << r.certifiable_prefix
         << ", \"pruned_nodes\": " << r.pruned_nodes
         << ", \"live_nodes_after_commit\": " << r.live_nodes_after_commit
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"streaming_window_bounded_live_state\": "
       << (window_ok ? "true" : "false") << ",\n"
       << "  \"streaming_window\": [\n";
  for (size_t i = 0; i < window_rows.size(); ++i) {
    const WindowRow& w = window_rows[i];
    json << "    {\"roots\": " << w.roots << ", \"events\": " << w.events
         << ", \"nodes\": " << w.nodes
         << ", \"certifiable\": " << (w.verdict ? "true" : "false")
         << ", \"online_total_us\": " << w.online_total_us
         << ", \"online_per_event_us\": " << w.OnlinePerEvent()
         << ", \"one_batch_check_us\": " << w.batch_final_check_us
         << ", \"pruned_nodes\": " << w.pruned_nodes
         << ", \"live_nodes\": " << w.live_nodes
         << ", \"prune_passes\": " << w.prune_passes << "}"
         << (i + 1 < window_rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return grows_slower && all_agree && window_ok && pruning_exercised ? 0 : 1;
}
