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
// Every timed value is the median and quartiles of bench::kRepeats
// passes (bench/harness.h); a row whose final online verdict differs from
// the batch verdict counts a mismatch.
//
// Usage: bench_online [output.json]

#include <cstdint>
#include <string>
#include <vector>

#include "core/correctness.h"
#include "harness.h"
#include "online/certifier.h"
#include "util/logging.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace {

using namespace comptx;  // NOLINT

struct Row {
  uint32_t roots = 0;
  size_t events = 0;
  size_t nodes = 0;
  uint32_t order = 0;
  bool verdict = false;
  bool agreement = false;
  bench::Stats online_total_us;
  bench::Stats batch_total_us;
  size_t certifiable_prefix = 0;  // longest prefix the engine accepts
  uint64_t pruned_nodes = 0;
  size_t live_nodes_after_commit = 0;

  double OnlinePerEvent() const {
    return online_total_us.median / double(events);
  }
  double BatchPerEvent() const {
    return batch_total_us.median / double(events);
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

  // Online: one certifier session ingesting the whole stream.
  row.online_total_us = bench::TimeUs([&] {
    online::Certifier certifier;
    for (const auto& event : events) {
      Status status = certifier.Ingest(event);
      COMPTX_CHECK(status.ok()) << status.ToString();
    }
    row.verdict = certifier.Certifiable();
    row.order = certifier.Verdict().order;
  });

  // Batch-per-event: re-run CheckCompC on the accumulated prefix after
  // every event (validation off: prefixes are legitimately incomplete).
  bool batch_verdict = true;
  row.batch_total_us = bench::Repeat([&] {
    const bench::Clock::time_point start = bench::Clock::now();
    CompositeSystem mirror;
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
    return bench::MicrosSince(start);
  });
  row.agreement = (batch_verdict == row.verdict);

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
  bool batch_verdict = false;
  bench::Stats online_total_us;
  bench::Stats batch_final_check_us;  // one batch run on the full system
  uint64_t pruned_nodes = 0;
  size_t live_nodes = 0;
  uint64_t prune_passes = 0;
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

  row.online_total_us = bench::TimeUs([&] {
    online::Certifier certifier;
    for (const TraceEvent& event : events) {
      Status status = certifier.Ingest(event);
      COMPTX_CHECK(status.ok()) << status.ToString();
    }
    row.verdict = certifier.Certifiable();
    row.nodes = certifier.system().NodeCount();
    const online::CertifierStats stats = certifier.Stats();
    row.pruned_nodes = stats.pruned_nodes;
    row.live_nodes = stats.live_nodes;
    row.prune_passes = stats.prune_passes;
  });

  // Reference point: ONE batch re-check on the accumulated system (an
  // online consumer would pay this per event without src/online).  The
  // certifier released its committed subtrees, so batch gets its own copy.
  CompositeSystem accumulated;
  for (const TraceEvent& event : events) {
    COMPTX_CHECK(workload::ApplyTraceEvent(accumulated, event).ok());
  }
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  row.batch_final_check_us = bench::TimeUs([&] {
    auto result = CheckCompC(accumulated, options);
    COMPTX_CHECK(result.ok());
    row.batch_verdict = result->correct;
  });
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  std::vector<Row> rows;
  std::vector<bench::Json> json_rows;
  for (const uint32_t roots : {4, 8, 16, 32, 64}) {
    rows.push_back(RunSize(roots, 20260806 + roots));
    const Row& r = rows.back();
    bench::AddRow(json_rows,
                  bench::Json()
                      .Set("roots", r.roots)
                      .Set("events", r.events)
                      .Set("nodes", r.nodes)
                      .Set("order", r.order)
                      .Set("certifiable", r.verdict)
                      .Set("online_total_us", r.online_total_us)
                      .Set("online_per_event_us", r.OnlinePerEvent())
                      .Set("batch_total_us", r.batch_total_us)
                      .Set("batch_per_event_us", r.BatchPerEvent())
                      .Set("speedup", r.BatchPerEvent() / r.OnlinePerEvent())
                      .Set("certifiable_prefix", r.certifiable_prefix)
                      .Set("pruned_nodes", r.pruned_nodes)
                      .Set("live_nodes_after_commit", r.live_nodes_after_commit)
                      .Mismatches(!r.agreement));
  }

  std::vector<bench::Json> window_rows;
  bool window_ok = true;
  for (const uint32_t roots : {256, 1024, 4096}) {
    const WindowRow w = RunWindow(roots);
    window_ok = window_ok && w.verdict && w.live_nodes < w.nodes / 4;
    bench::AddRow(
        window_rows,
        bench::Json()
            .Set("roots", w.roots)
            .Set("events", w.events)
            .Set("nodes", w.nodes)
            .Set("certifiable", w.verdict)
            .Set("online_total_us", w.online_total_us)
            .Set("online_per_event_us",
                 w.online_total_us.median / double(w.events))
            .Set("one_batch_check_us", w.batch_final_check_us)
            .Set("pruned_nodes", w.pruned_nodes)
            .Set("live_nodes", w.live_nodes)
            .Set("prune_passes", w.prune_passes)
            .Mismatches(w.batch_verdict != w.verdict));
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
  // Guard against regressing the prune measurement back into a no-op.
  bool pruning_exercised = true;
  for (const Row& r : rows) pruning_exercised &= r.pruned_nodes > 0;

  const int code = bench::WriteReport(
      run_start,
      argc > 1 ? argv[1] : "BENCH_online.json", "E10_online_certification",
      bench::Json()
          .Set("topology", "layered_dag")
          .Set("depth", 3)
          .Set("conflict_prob", 0.15)
          .Set("per_event_cost_grows_slower_than_batch", grows_slower)
          .Set("pruning_exercised_on_certifiable_prefix", pruning_exercised)
          .Set("rows", json_rows)
          .Set("streaming_window_bounded_live_state", window_ok)
          .Set("streaming_window", window_rows));
  return code == 0 && grows_slower && window_ok && pruning_exercised ? 0 : 1;
}
