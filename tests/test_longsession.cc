// Long-lived session suite (ctest label `online`): proves the O(window)
// hot-path claims of DESIGN.md §13 at the certifier layer.
//
//   * commit_through watermark semantics: text + wire round trips, exact
//     equivalence with the corresponding kCommit sequence, monotonicity,
//     and rejection of watermarks past the created-root count;
//   * IngestBatch equivalence: arbitrary batch splits produce the same
//     per-event statuses, stats and serial witness as sequential Ingest,
//     checked after every batch;
//   * the 500-trace property sweep: a pruned certifier (watermarks
//     interleaved at safe positions) stays prefix-identical to an
//     unpruned certifier and to analysis::BatchPrefixVerdicts, with
//     seed + workload-spec repro strings on failure;
//   * the 500-trace sweep's streaming input: roots emitted whole with
//     watermarks keeping pace, online == batch on the full prefix ==
//     batch on the live window at every root boundary, including
//     prefixes whose window has lower schedule levels than the session;
//   * pruning on commit and rebuild leaves nothing to prune: after every
//     event of both sweeps, of a stream that deepens the invocation chain
//     under a pinned sealed root, and of a stream whose rebuild clears a
//     failure, a further Prune() removes nothing;
//   * the soak: a 1M-event streaming-window session (10M under
//     COMPTX_SOAK=1, the nightly ASan job) with live-node count bounded
//     by the window, RSS growth from the 10% mark under a fixed ceiling,
//     and sampled-prefix verdicts equal to the batch oracle at
//     oracle-feasible scales.

#include <gtest/gtest.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.h"
#include "core/correctness.h"
#include "core/invocation_graph.h"
#include "online/certifier.h"
#include "online/state_io.h"
#include "service/protocol.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/event_streams.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace comptx::online {
namespace {

ReductionOptions BatchPrefixOptions() {
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  options.forgetting = true;
  return options;
}

std::vector<workload::TraceEvent> GeneratedEvents(
    const workload::WorkloadSpec& spec, uint64_t seed) {
  auto cs = workload::GenerateSystem(spec, seed);
  EXPECT_TRUE(cs.ok()) << cs.status().ToString();
  auto text = workload::SaveTrace(*cs);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  auto events = workload::ParseTraceEvents(*text);
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  return std::move(events).value();
}

// ------------------------------------------------- watermark semantics

// A tag names its operation, so it touches that operation's root: the
// watermark sealing the root must wait for it.  Placed before the tags,
// the watermarks would seal both roots and the certifier would reject
// each tag as naming a node of a committed root's pruned subtree.
TEST(CommitThrough, InterleavedWatermarksWaitForTags) {
  auto events = workload::ParseTraceEvents(
      "comptx-trace v1\nschedule S\nadt counter\nadtop 0 inc\n"
      "root 0 T0\nleaf 0 x0\nroot 0 T1\nleaf 2 x1\n"
      "tag 1 0 0\ntag 3 0 0\nend\n");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const auto marked = workload::InterleaveWatermarks(*events, 1);
  ASSERT_EQ(marked.size(), events->size() + 2);
  EXPECT_EQ(marked[8].kind, workload::TraceEventKind::kCommitThrough);
  EXPECT_EQ(marked[10].kind, workload::TraceEventKind::kCommitThrough);
  CertifierOptions options;
  options.auto_prune = true;
  Certifier certifier(options);
  for (size_t i = 0; i < marked.size(); ++i) {
    const Status status = certifier.Ingest(marked[i]);
    EXPECT_TRUE(status.ok())
        << i << " " << workload::FormatTraceEvent(marked[i]) << ": "
        << status.ToString();
  }
}


TEST(CommitThrough, TextAndWireRoundTrips) {
  workload::TraceEvent mark;
  mark.kind = workload::TraceEventKind::kCommitThrough;
  mark.a = 12345;

  // Trace text format.
  const std::string line = workload::FormatTraceEvent(mark);
  EXPECT_EQ(line, "commit_through 12345");
  auto parsed = workload::ParseTraceEvents("comptx-trace v1\n" + line +
                                           "\nend\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->front().kind, workload::TraceEventKind::kCommitThrough);
  EXPECT_EQ(parsed->front().a, 12345u);

  // Both wire protocols, through the real frame codec.
  for (service::WireProtocol protocol :
       {service::WireProtocol::kV1, service::WireProtocol::kV2}) {
    service::Request append;
    append.kind = service::CommandKind::kAppend;
    append.session = 7;
    append.events.push_back(mark);
    const std::string bytes = service::EncodeRequestFrame(protocol, append);
    service::FrameParser reader;
    reader.Feed(bytes.data(), bytes.size());
    service::WireFrame frame;
    auto have = reader.Next(frame);
    ASSERT_TRUE(have.ok() && *have) << static_cast<int>(protocol);
    auto decoded = service::DecodeRequestFrame(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->events.size(), 1u);
    EXPECT_EQ(decoded->events[0].kind,
              workload::TraceEventKind::kCommitThrough);
    EXPECT_EQ(decoded->events[0].a, 12345u);
  }
}

TEST(CommitThrough, EqualsExplicitCommitSequence) {
  // On random traces, a trailing commit_through K must leave the
  // certifier in the same observable state as committing the first K
  // roots explicitly: same verdict, same seal/prune counters, same
  // witness.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    workload::WorkloadSpec spec;
    spec.topology.kind = workload::TopologyKind::kLayeredDag;
    spec.topology.depth = 2 + static_cast<uint32_t>(seed % 2);
    spec.topology.branches = 2;
    spec.topology.roots = 3;
    spec.topology.fanout = 2;
    spec.execution.conflict_prob = 0.3;
    const auto events = GeneratedEvents(spec, 9000 + seed);
    ASSERT_FALSE(events.empty());

    Certifier by_watermark;
    Certifier by_commits;
    std::vector<NodeId> roots;
    for (const auto& event : events) {
      (void)by_watermark.Ingest(event);
      (void)by_commits.Ingest(event);
    }
    roots = by_commits.system().Roots();
    const uint64_t k = roots.size() - 1;  // leave one root live

    workload::TraceEvent mark;
    mark.kind = workload::TraceEventKind::kCommitThrough;
    mark.a = static_cast<uint32_t>(k);
    ASSERT_TRUE(by_watermark.Ingest(mark).ok()) << "seed " << seed;
    for (uint64_t i = 0; i < k; ++i) {
      ASSERT_TRUE(by_commits.Commit(roots[i]).ok()) << "seed " << seed;
    }
    by_watermark.Prune();
    by_commits.Prune();

    EXPECT_EQ(by_watermark.Certifiable(), by_commits.Certifiable())
        << "seed " << seed;
    const CertifierStats a = by_watermark.Stats();
    const CertifierStats b = by_commits.Stats();
    EXPECT_EQ(a.sealed_roots, b.sealed_roots) << "seed " << seed;
    EXPECT_EQ(a.pruned_nodes, b.pruned_nodes) << "seed " << seed;
    EXPECT_EQ(a.live_nodes, b.live_nodes) << "seed " << seed;
    EXPECT_EQ(by_watermark.SerialWitness(), by_commits.SerialWitness())
        << "seed " << seed;
    // Only the watermark session reports a watermark; explicit commits
    // do not move it.
    EXPECT_EQ(a.commit_watermark, k) << "seed " << seed;
    EXPECT_EQ(b.commit_watermark, 0u) << "seed " << seed;
  }
}

TEST(CommitThrough, RejectsWatermarkPastCreatedRoots) {
  Certifier certifier;
  workload::TraceEvent e;
  e.kind = workload::TraceEventKind::kSchedule;
  e.name = "S";
  ASSERT_TRUE(certifier.Ingest(e).ok());
  e = {};
  e.kind = workload::TraceEventKind::kRoot;
  e.schedule = 0;
  e.name = "T";
  ASSERT_TRUE(certifier.Ingest(e).ok());

  workload::TraceEvent mark;
  mark.kind = workload::TraceEventKind::kCommitThrough;
  mark.a = 2;  // only one root exists
  EXPECT_FALSE(certifier.Ingest(mark).ok());
  EXPECT_EQ(certifier.Stats().commit_watermark, 0u);

  mark.a = 1;
  EXPECT_TRUE(certifier.Ingest(mark).ok());
  EXPECT_EQ(certifier.Stats().commit_watermark, 1u);
  EXPECT_EQ(certifier.Stats().sealed_roots, 1u);

  // Watermarks are cumulative and monotone: replaying an older (or the
  // same) one is an accepted no-op.
  mark.a = 0;
  EXPECT_TRUE(certifier.Ingest(mark).ok());
  EXPECT_EQ(certifier.Stats().commit_watermark, 1u);
  EXPECT_EQ(certifier.Stats().sealed_roots, 1u);
}

// ------------------------------------------------ batch-path equivalence

/// Every counter of two certifiers that ingested the same stream.
void ExpectSameStats(const CertifierStats& a, const CertifierStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.events_accepted, b.events_accepted) << where;
  EXPECT_EQ(a.events_rejected, b.events_rejected) << where;
  EXPECT_EQ(a.rebuilds, b.rebuilds) << where;
  EXPECT_EQ(a.prune_passes, b.prune_passes) << where;
  EXPECT_EQ(a.pruned_nodes, b.pruned_nodes) << where;
  EXPECT_EQ(a.sealed_roots, b.sealed_roots) << where;
  EXPECT_EQ(a.commit_watermark, b.commit_watermark) << where;
  EXPECT_EQ(a.live_nodes, b.live_nodes) << where;
  EXPECT_EQ(a.window_span, b.window_span) << where;
  EXPECT_EQ(a.observed_pairs, b.observed_pairs) << where;
  EXPECT_EQ(a.cc_edges, b.cc_edges) << where;
  EXPECT_EQ(a.calc_edges, b.calc_edges) << where;
  EXPECT_EQ(a.closure_pairs, b.closure_pairs) << where;
  EXPECT_EQ(a.weak_output_generators, b.weak_output_generators) << where;
}

TEST(IngestBatch, MatchesSequentialIngestOnRandomTraces) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    workload::WorkloadSpec spec;
    spec.topology.kind = (seed % 2 == 0) ? workload::TopologyKind::kLayeredDag
                                         : workload::TopologyKind::kFork;
    spec.topology.depth = 2 + static_cast<uint32_t>(seed % 2);
    spec.topology.branches = 2;
    spec.topology.roots = 2 + static_cast<uint32_t>(seed % 3);
    spec.topology.fanout = 2;
    spec.execution.conflict_prob = 0.3;
    spec.execution.disorder_prob = (seed % 2 == 0) ? 0.0 : 0.3;
    auto events = GeneratedEvents(spec, 4200 + seed);
    // Watermarks in the middle of a batch make commit pruning run
    // inside it, exactly where the sequential stream runs it.
    events = workload::InterleaveWatermarks(events, 2);
    const std::string repro =
        StrCat(workload::DescribeWorkloadSpec(spec), " seed=", 4200 + seed);

    // Split the stream into batches of varying size (the seed picks the
    // split), including batches holding the whole stream, and feed the
    // sequential certifier the same events one at a time in lockstep.
    const size_t batch_size = 1 + (seed % 2 == 0 ? seed % 7 : events.size());
    Certifier sequential;
    Certifier batched;
    size_t cursor = 0;
    while (cursor < events.size()) {
      const size_t n = std::min(batch_size, events.size() - cursor);
      std::vector<workload::TraceEvent> chunk(events.begin() + cursor,
                                              events.begin() + cursor + n);
      std::vector<Status> statuses;
      const size_t rejected = batched.IngestBatch(chunk, &statuses);
      ASSERT_EQ(statuses.size(), n) << repro;
      size_t rejected_expected = 0;
      for (size_t i = 0; i < n; ++i) {
        const bool expected_ok = sequential.Ingest(chunk[i]).ok();
        EXPECT_EQ(statuses[i].ok(), expected_ok)
            << repro << " event " << cursor + i << ": "
            << statuses[i].ToString();
        if (!expected_ok) ++rejected_expected;
      }
      EXPECT_EQ(rejected, rejected_expected) << repro;
      cursor += n;

      const std::string where = StrCat(repro, " after event ", cursor);
      EXPECT_EQ(batched.Certifiable(), sequential.Certifiable()) << where;
      ExpectSameStats(batched.Stats(), sequential.Stats(), where);
      EXPECT_EQ(batched.SerialWitness(), sequential.SerialWitness()) << where;
    }
  }
}

// ----------------------------------------------------- property sweep

/// A streaming execution for the pruning sweep, one chunk per root.  A
/// root is emitted whole: its subtransactions and leaves, then the
/// conflicts and weak output orders inside it and to its predecessor,
/// then (every 2 roots) a commit_through trailing the stream by 2 roots,
/// so sealing and pruning keep pace with the stream.  Schedule R hosts
/// the roots, A and B their subtransactions; an A subtransaction
/// sometimes invokes B, so the window's own invocation graph often gives
/// A and R lower levels than the session has.  About 3% of the order
/// pairs run against the stream, which makes some prefixes fail.
class FlipStream {
 public:
  explicit FlipStream(uint64_t seed) : rng_(seed) {}

  std::vector<workload::TraceEvent> NextRoot() {
    using workload::TraceEventKind;
    std::vector<workload::TraceEvent> out;
    if (roots_ == 0) {
      for (const char* name : {"R", "A", "B"}) {
        workload::TraceEvent e;
        e.kind = TraceEventKind::kSchedule;
        e.name = name;
        out.push_back(e);
      }
    }
    const std::string tag = std::to_string(roots_);
    Shape cur;
    const uint32_t root = Create(out, TraceEventKind::kRoot, kInvalidIndex,
                                 0, "T" + tag);
    const uint32_t a_subs = 1 + static_cast<uint32_t>(rng_.UniformInt(2));
    for (uint32_t k = 0; k < a_subs; ++k) {
      const std::string name = tag + "_" + std::to_string(k);
      const uint32_t a =
          Create(out, TraceEventKind::kSub, root, 1, "A" + name);
      cur.r_ops.push_back(a);
      const uint32_t leaves = 1 + static_cast<uint32_t>(rng_.UniformInt(2));
      for (uint32_t l = 0; l < leaves; ++l) {
        cur.a_ops.push_back(Create(out, TraceEventKind::kLeaf, a, 0,
                                   "x" + name + "_" + std::to_string(l)));
      }
      if (rng_.Bernoulli(0.15)) {  // A invokes B
        const uint32_t b = Create(out, TraceEventKind::kSub, a, 2, "B" + name);
        cur.a_ops.push_back(b);
        cur.b_ops.push_back(
            Create(out, TraceEventKind::kLeaf, b, 0, "y" + name));
      }
    }
    if (rng_.Bernoulli(0.4)) {  // R invokes B directly
      const uint32_t d = Create(out, TraceEventKind::kSub, root, 2, "D" + tag);
      cur.r_ops.push_back(d);
      cur.b_ops.push_back(Create(out, TraceEventKind::kLeaf, d, 0, "z" + tag));
    }
    // Orders inside the root, then towards the predecessor, per host.
    Relate(out, cur.a_ops, cur.a_ops, 0.2);
    Relate(out, prev_.a_ops, cur.a_ops, 0.4);
    Relate(out, prev_.b_ops, cur.b_ops, 0.4);
    Relate(out, prev_.r_ops, cur.r_ops, 0.2);
    prev_ = std::move(cur);
    ++roots_;
    if (roots_ % 2 == 0 && roots_ > kLag) {
      workload::TraceEvent mark;
      mark.kind = TraceEventKind::kCommitThrough;
      mark.a = roots_ - kLag;
      out.push_back(mark);
    }
    return out;
  }

 private:
  static constexpr uint32_t kLag = 2;

  /// Operations of one root, grouped by host schedule.
  struct Shape {
    std::vector<uint32_t> r_ops, a_ops, b_ops;
  };

  uint32_t Create(std::vector<workload::TraceEvent>& out,
                  workload::TraceEventKind kind, uint32_t parent,
                  uint32_t schedule, std::string name) {
    workload::TraceEvent e;
    e.kind = kind;
    e.parent = parent;
    if (kind != workload::TraceEventKind::kLeaf) e.schedule = schedule;
    e.name = std::move(name);
    out.push_back(e);
    return next_id_++;
  }

  /// With probability `p` per element of `to`, a conflict with a random
  /// older element of `from`, ordered older first (newer first 3% of the
  /// time).
  void Relate(std::vector<workload::TraceEvent>& out,
              const std::vector<uint32_t>& from,
              const std::vector<uint32_t>& to, double p) {
    if (from.empty()) return;
    for (const uint32_t y : to) {
      if (!rng_.Bernoulli(p)) continue;
      const uint32_t x = rng_.Pick(from);
      if (x >= y) continue;  // stream order: older ids first
      workload::TraceEvent e;
      e.kind = workload::TraceEventKind::kConflict;
      e.a = x;
      e.b = y;
      out.push_back(e);
      e.kind = workload::TraceEventKind::kWeakOutput;
      if (rng_.Bernoulli(0.03)) std::swap(e.a, e.b);
      out.push_back(e);
    }
  }

  Rng rng_;
  uint32_t roots_ = 0;
  uint32_t next_id_ = 0;
  Shape prev_;
};

/// The 500-trace sweep: pruned (safe interleaved watermarks) and
/// unpruned certifier verdicts are prefix-identical to each other and to
/// the batch oracle after every accepted event, and the pruned session
/// leaves no pruning opportunity behind any event: pruning on commit and
/// rebuild keeps the window as small as a pass after every event would.
TEST(LongSessionProperty, PrunedVerdictsPrefixIdenticalToOracle) {
  const std::vector<workload::TopologyKind> kinds = {
      workload::TopologyKind::kStack,
      workload::TopologyKind::kFork,
      workload::TopologyKind::kJoin,
      workload::TopologyKind::kLayeredDag,
  };
  size_t traces = 0;
  uint64_t pruned_nodes_total = 0;
  for (workload::TopologyKind kind : kinds) {
    for (uint64_t seed = 0; seed < 125; ++seed) {
      workload::WorkloadSpec spec;
      spec.topology.kind = kind;
      spec.topology.depth = 2 + static_cast<uint32_t>(seed % 2);
      spec.topology.branches = 2;
      spec.topology.roots = 2 + static_cast<uint32_t>(seed % 3);
      spec.topology.fanout = 2;
      spec.execution.conflict_prob = 0.3;
      spec.execution.disorder_prob = (seed % 2 == 0) ? 0.0 : 0.3;
      const uint64_t full_seed = 77000 + seed * 4 + uint64_t(kind);
      const std::string repro =
          StrCat(workload::DescribeWorkloadSpec(spec), " seed=", full_seed);

      const auto raw = GeneratedEvents(spec, full_seed);
      ASSERT_FALSE(raw.empty()) << repro;

      // Accepted subsequence via an unpruned reference session, with its
      // per-accepted-event verdicts.
      CertifierOptions unpruned_options;
      unpruned_options.auto_prune = false;
      Certifier unpruned(unpruned_options);
      std::vector<workload::TraceEvent> accepted;
      std::vector<bool> unpruned_verdicts;
      for (const auto& event : raw) {
        if (!unpruned.Ingest(event).ok()) continue;
        accepted.push_back(event);
        unpruned_verdicts.push_back(unpruned.Certifiable());
      }

      auto oracle = analysis::BatchPrefixVerdicts(accepted,
                                                  BatchPrefixOptions());
      ASSERT_TRUE(oracle.ok()) << repro << ": " << oracle.status().ToString();
      ASSERT_EQ(oracle->size(), accepted.size()) << repro;
      for (size_t i = 0; i < accepted.size(); ++i) {
        ASSERT_EQ(!!unpruned_verdicts[i], !!(*oracle)[i])
            << repro << ": unpruned diverges from oracle after accepted "
            << "event " << i + 1 << " ("
            << workload::FormatTraceEvent(accepted[i]) << ")";
      }

      // Pruned session: watermark every other root, so sealing + pruning
      // interleave densely.
      CertifierOptions pruned_options;
      pruned_options.auto_prune = true;
      Certifier pruned(pruned_options);
      const auto marked = workload::InterleaveWatermarks(accepted, 2);
      size_t accepted_index = 0;
      for (const auto& event : marked) {
        Status status = pruned.Ingest(event);
        ASSERT_TRUE(status.ok())
            << repro << ": pruned session rejected "
            << workload::FormatTraceEvent(event) << ": " << status.ToString();
        ASSERT_EQ(pruned.Prune(), 0u)
            << repro << ": prunable subtree left after "
            << workload::FormatTraceEvent(event);
        if (event.kind == workload::TraceEventKind::kCommitThrough) continue;
        ASSERT_EQ(pruned.Certifiable(), !!(*oracle)[accepted_index])
            << repro << ": pruned diverges from oracle after accepted event "
            << accepted_index + 1 << " ("
            << workload::FormatTraceEvent(event) << ")";
        ++accepted_index;
      }
      ASSERT_EQ(accepted_index, accepted.size()) << repro;
      pruned_nodes_total += pruned.Stats().pruned_nodes;
      ++traces;
    }
  }
  EXPECT_EQ(traces, 500u);
  // The sweep must actually exercise pruning, not just tolerate it.
  EXPECT_GT(pruned_nodes_total, 0u);

  // Streaming input: watermarks keep pace with the stream, so most of
  // each session is pruned while it runs.  At every root boundary the
  // online verdict must equal batch on the full prefix and batch on the
  // live window (the trace a snapshot holds).
  size_t boundaries = 0;
  size_t failing = 0;
  size_t level_differs = 0;
  uint64_t streamed_nodes = 0;
  uint64_t streamed_pruned = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    const std::string repro = StrCat("flip stream seed=", 91000 + seed);
    FlipStream stream(91000 + seed);
    Certifier pruned;
    CompositeSystem full;  // the accepted prefix, nothing released
    for (uint32_t root = 0; root < 32; ++root) {
      for (const auto& event : stream.NextRoot()) {
        const Status status = pruned.Ingest(event);
        ASSERT_TRUE(status.ok())
            << repro << ": rejected " << workload::FormatTraceEvent(event)
            << ": " << status.ToString();
        ASSERT_EQ(pruned.Prune(), 0u)
            << repro << ": prunable subtree left after "
            << workload::FormatTraceEvent(event);
        ASSERT_TRUE(workload::ApplyTraceEvent(full, event).ok()) << repro;
      }
      auto state = CaptureCertifierState(pruned);
      ASSERT_TRUE(state.ok()) << repro << ": " << state.status().ToString();
      auto window = workload::LoadTrace(state->trace);
      ASSERT_TRUE(window.ok()) << repro << ": " << window.status().ToString();
      auto on_full = CheckCompC(full, BatchPrefixOptions());
      auto on_window = CheckCompC(*window, BatchPrefixOptions());
      ASSERT_TRUE(on_full.ok() && on_window.ok()) << repro;
      const std::string where = StrCat(repro, " after root ", root);
      ASSERT_EQ(pruned.Certifiable(), on_full->correct) << where;
      ASSERT_EQ(on_window->correct, on_full->correct) << where;
      auto session_levels = BuildInvocationGraph(full);
      auto window_levels = BuildInvocationGraph(*window);
      ASSERT_TRUE(session_levels.ok() && window_levels.ok()) << where;
      ASSERT_EQ(pruned.Verdict().order, session_levels->order) << where;
      if (session_levels->schedule_level != window_levels->schedule_level) {
        ++level_differs;
      }
      if (!on_full->correct) ++failing;
      ++boundaries;
    }
    streamed_nodes += full.NodeCount();
    streamed_pruned += pruned.Stats().pruned_nodes;
  }
  EXPECT_EQ(boundaries, 60u * 32u);
  // Both verdicts and the level-difference case must actually occur,
  // and the sessions must shed most of their history.
  EXPECT_GT(failing, 0u);
  EXPECT_LT(failing, boundaries);
  EXPECT_GT(level_differs, 0u);
  EXPECT_GT(streamed_pruned, streamed_nodes / 2)
      << streamed_pruned << " of " << streamed_nodes << " nodes pruned ("
      << failing << " failing prefixes, " << level_differs
      << " with window levels below the session's)";
}

/// A pruned session fed event by event, asserting after each one that a
/// pruning pass finds nothing left to remove; counts the rebuilds that
/// ran while sealed roots were still unpruned.
struct PruneProbe {
  Certifier certifier;
  CompositeSystem full;  // the accepted stream, nothing released
  uint64_t pinned_rebuilds = 0;

  void Ingest(const std::string& line) {
    auto e = workload::ParseTraceEventLine(line);
    ASSERT_TRUE(e.ok()) << line << ": " << e.status().ToString();
    const uint64_t rebuilds_before = certifier.Stats().rebuilds;
    const Status status = certifier.Ingest(*e);
    ASSERT_TRUE(status.ok()) << line << ": " << status.ToString();
    ASSERT_TRUE(workload::ApplyTraceEvent(full, *e).ok()) << line;
    ASSERT_EQ(certifier.Prune(), 0u) << "prunable subtree left after " << line;
    if (certifier.Stats().rebuilds > rebuilds_before &&
        !certifier.SealedRoots().empty()) {
      ++pinned_rebuilds;
    }
  }
  bool BatchVerdict() const {
    auto batch = CheckCompC(full, BatchPrefixOptions());
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    return batch.ok() && batch->correct;
  }
};

/// Pins survive rebuilds: a committed root held by an in-edge from an
/// open root stays pinned while the open root deepens the invocation
/// chain one schedule at a time, each step shifting every schedule level
/// and rebuilding the engine.  A rebuild replays the retained closures,
/// which still hold the pin, so no rebuild may leave the sealed root
/// prunable; once the open root commits too, both subtrees go at once.
TEST(LongSessionProperty, RebuildsUnderPinnedSealedRootsLeaveNothingToPrune) {
  constexpr uint32_t kDeepenings = 120;
  PruneProbe probe;
  for (const char* line :
       {"schedule S0", "root 0 A", "leaf 0 a", "root 0 B", "leaf 2 b",
        // A before B twice over: conflicting ordered operations and an
        // input order, so both the closures and the front graphs pin B.
        "conflict 1 3", "weak_out 1 3", "weak_in 0 0 2", "commit 2"}) {
    probe.Ingest(line);
    if (HasFatalFailure()) return;
  }
  ASSERT_EQ(probe.certifier.SealedRoots(), std::vector<NodeId>{NodeId(2)});

  // Deepen under A: schedule k - 1 invokes the new schedule k.
  uint32_t deepest = 0;  // A, then its deepest subtransaction
  for (uint32_t k = 1; k <= kDeepenings; ++k) {
    const uint32_t sub = static_cast<uint32_t>(probe.full.NodeCount());
    probe.Ingest(StrCat("schedule S", k));
    probe.Ingest(StrCat("sub ", deepest, " ", k, " A", k));
    probe.Ingest(StrCat("leaf ", sub, " a", k));
    if (HasFatalFailure()) return;
    deepest = sub;
  }
  EXPECT_GE(probe.pinned_rebuilds, 100u);
  ASSERT_EQ(probe.certifier.SealedRoots(), std::vector<NodeId>{NodeId(2)});
  EXPECT_EQ(probe.certifier.Verdict().order, kDeepenings + 1);
  EXPECT_EQ(probe.certifier.Certifiable(), probe.BatchVerdict());

  probe.Ingest("commit 0");
  EXPECT_TRUE(probe.certifier.SealedRoots().empty());
  EXPECT_EQ(probe.certifier.Stats().live_nodes, 0u);
}

/// A rebuild can clear a failure: tagging two conflicting operations
/// with commuting classes retroactively erases their conflict, and the
/// replay finds the session certifiable again.  A root committed while
/// the session had failed was sealed but kept (failure evidence is never
/// pruned); once the rebuild clears the failure nothing pins it, so the
/// rebuild itself must prune it.
TEST(LongSessionProperty, ARebuildThatClearsAFailureLeavesNothingToPrune) {
  PruneProbe probe;
  for (const char* line :
       {"schedule S", "adt Q", "adtop 0 op", "commute 0 0", "root 0 A",
        "leaf 0 a", "root 0 B", "leaf 2 b", "root 0 C", "leaf 4 c",
        // a before b on conflicting operations, but B before A as input:
        // the conflict order contradicts the input order.
        "conflict 1 3", "weak_out 1 3", "weak_in 0 2 0"}) {
    probe.Ingest(line);
    if (HasFatalFailure()) return;
  }
  ASSERT_FALSE(probe.certifier.Certifiable());
  ASSERT_FALSE(probe.BatchVerdict());
  probe.Ingest("commit 4");  // sealed, kept: the session failed
  ASSERT_EQ(probe.certifier.SealedRoots(), std::vector<NodeId>{NodeId(4)});
  probe.Ingest("tag 1 0 0");
  probe.Ingest("tag 3 0 0");  // a and b commute: no conflict
  if (HasFatalFailure()) return;
  EXPECT_TRUE(probe.certifier.Certifiable());
  EXPECT_TRUE(probe.BatchVerdict());
  EXPECT_TRUE(probe.certifier.SealedRoots().empty());
  EXPECT_EQ(probe.certifier.Stats().pruned_nodes, 2u);
}

// ------------------------------------------------ implied closure pairs

/// Each leaf of the window chain is weak-output-ordered after every
/// live leaf before it, but conflicts only with its predecessor: the
/// implied pairs commute and reach no front graph, and the certifier
/// keeps only the generators, never the closure (docs/THEORY.md,
/// "Implied weak output pairs").  So the front graphs and the generators
/// hold O(1) edges per live node, not O(window).
TEST(LongSessionProperty, WindowChainKeepsCcEdgesLinearInTheLiveNodes) {
  constexpr uint32_t kWindow = 128;
  constexpr uint32_t kRoots = 5 * kWindow;
  Certifier certifier;
  workload::WindowChain stream(kWindow);
  CompositeSystem mirror;  // every accepted event, never pruned
  std::vector<workload::TraceEvent> chunk;
  for (uint32_t root = 0; root < kRoots; ++root) {
    chunk.clear();
    stream.NextRoot(chunk);
    ASSERT_EQ(certifier.IngestBatch(chunk), 0u) << "root " << root;
    for (const auto& event : chunk) {
      ASSERT_TRUE(workload::ApplyTraceEvent(mirror, event).ok());
    }
    const CertifierStats stats = certifier.Stats();
    ASSERT_LE(stats.cc_edges, 2 * stats.live_nodes) << "after root " << root;
    ASSERT_LE(stats.weak_output_generators, 2 * stats.live_nodes)
        << "after root " << root;
  }
  EXPECT_GT(certifier.Stats().pruned_nodes, 0u);
  auto batch = CheckCompC(mirror, BatchPrefixOptions());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->correct);
  EXPECT_EQ(certifier.Certifiable(), batch->correct);
}

// -------------------------------------------------------------- soak

uint64_t ReadVmRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      uint64_t kb = 0;
      in >> kb;
      return kb * 1024;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

#ifdef __SANITIZE_ADDRESS__
// From the ASan runtime (sanitizer/allocator_interface.h).
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#endif

/// The memory the process holds for its data: RSS, except under ASan,
/// whose quarantine of freed blocks and shadow pages inflate RSS by tens
/// of MB without a live byte behind them; there the allocator's count of
/// live heap bytes is the faithful measure.
uint64_t HeldMemoryBytes() {
#ifdef __SANITIZE_ADDRESS__
  return __sanitizer_get_current_allocated_bytes();
#else
  return ReadVmRssBytes();
#endif
}

TEST(LongSessionSoak, MillionEventWindowStaysFlatAndAgreesWithOracle) {
  // 1M events by default; COMPTX_SOAK=1 (the nightly ASan job) runs the
  // full 10M-event version.
  const bool soak = [] {
    const char* env = std::getenv("COMPTX_SOAK");
    return env != nullptr && env[0] == '1';
  }();
  const uint64_t total_events = soak ? 10'000'000ull : 1'000'000ull;
  constexpr uint32_t kWindow = 32;   // roots per watermark
  constexpr size_t kBatch = 256;     // service drain-worker batch size
  // The live window holds kWindow roots of 2 nodes each plus up to a
  // window of not-yet-sealed successors; 6x is comfortable headroom
  // whose violation still means "live state scales with history".
  constexpr uint64_t kLiveBound = 6ull * (kWindow + 1) * 2;

  Certifier certifier;  // defaults: forgetting, auto_prune
  workload::WindowChain stream(kWindow);
  CompositeSystem mirror;  // batch-oracle mirror of accepted events
  std::vector<uint64_t> oracle_samples = {1000, 4000, 16000};
  size_t next_sample = 0;
  uint64_t ingested = 0;
  uint64_t live_high_water = 0;
  uint64_t rss_at_tenth = 0;
  std::vector<workload::TraceEvent> chunk;
  while (ingested < total_events) {
    chunk.clear();
    while (chunk.size() < kBatch) stream.NextRoot(chunk);
    const size_t rejected = certifier.IngestBatch(chunk);
    ASSERT_EQ(rejected, 0u) << "after ~" << ingested << " events";
    // The mirror stays cheap: ApplyTraceEvent only, no per-event check,
    // and it stops growing after the last oracle sample.
    if (next_sample < oracle_samples.size()) {
      for (const auto& event : chunk) {
        ASSERT_TRUE(workload::ApplyTraceEvent(mirror, event).ok());
      }
    }
    ingested += chunk.size();
    if (rss_at_tenth == 0 && ingested >= total_events / 10) {
      rss_at_tenth = HeldMemoryBytes();
    }

    if (ingested % (64 * kBatch) < kBatch) {
      const CertifierStats stats = certifier.Stats();
      live_high_water = std::max<uint64_t>(live_high_water, stats.live_nodes);
      ASSERT_LE(stats.live_nodes, kLiveBound)
          << "live state grew past the window after " << ingested
          << " events (pruned=" << stats.pruned_nodes << ")";
      ASSERT_TRUE(certifier.Certifiable()) << "after " << ingested;
    }
    // Sampled-prefix oracle agreement, at scales where the quadratic
    // batch check is still feasible.
    if (next_sample < oracle_samples.size() &&
        ingested >= oracle_samples[next_sample]) {
      auto batch = CheckCompC(mirror, BatchPrefixOptions());
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(certifier.Certifiable(), batch->correct)
          << "oracle disagreement at " << ingested << " events";
      ++next_sample;
#ifdef __GLIBC__
      // The batch check's closures are freed now; hand the pages back so
      // the RSS ceiling below measures the session, not a free list.
      if (next_sample == oracle_samples.size()) malloc_trim(0);
#endif
    }
  }
  ASSERT_EQ(next_sample, oracle_samples.size());

  const CertifierStats stats = certifier.Stats();
  EXPECT_TRUE(certifier.Certifiable());
  EXPECT_GT(stats.prune_passes, 0u);
  EXPECT_GT(stats.commit_watermark, 0u);
  // Nearly the whole history must have been reclaimed.
  EXPECT_GT(stats.pruned_nodes, (ingested / 4) * 2 * 9 / 10);
  EXPECT_LE(live_high_water, kLiveBound);

  // Memory: everything the session holds — the composite system
  // included — is O(window), so from the 10% mark on RSS (live heap
  // bytes under ASan) stays flat.  A fixed ceiling on the growth,
  // whatever the session length, catches any structure that still keeps
  // a byte per event.
  constexpr uint64_t kRssCeiling = 4ull << 20;
  const uint64_t rss_after = HeldMemoryBytes();
  if (rss_at_tenth > 0 && rss_after > rss_at_tenth) {
    EXPECT_LT(rss_after - rss_at_tenth, kRssCeiling)
        << "RSS grew " << (rss_after - rss_at_tenth) << " bytes from event "
        << total_events / 10 << " to " << total_events;
  }
}

}  // namespace
}  // namespace comptx::online
