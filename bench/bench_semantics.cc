// Experiment E16 (DESIGN.md §14 / EXPERIMENTS.md): the semantic
// commutativity layer at scale.
//
// Generates ADT-tagged workload mixes (built-in counter/set/queue/escrow
// tables plus a uniform mixture) over the shared-bottom and layered-DAG
// shapes, then measures two things per mix:
//
//   1. Admission: batch CheckCompC on the tagged systems against their
//      spec-stripped raw twins (same events minus the five spec kinds, so
//      the conflict bits are identical).  The semantic layer can only
//      erase conflicts, so it must admit a superset — the headline
//      `semantic_admits_extra` counts executions only the spec saves.
//   2. Static decisions: AnalyzeConfiguration on the tagged systems.  On
//      shared-bottom mixes the semantic shared-bottom rule decides
//      configurations no bit-level theorem covers; `semantic_decided`
//      counts its firings.  Every decided verdict must equal the batch
//      reduction's (a hard check: a mismatch aborts the run).
//
// The two sweeps alternate over bench::kRepeats passes and report their
// median and quartiles (bench/harness.h).  A raw-Comp-C system the spec
// refuses counts a mismatch.
//
// Usage: bench_semantics [output.json]

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.h"
#include "harness.h"
#include "staticcheck/analyzer.h"
#include "testing/events.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/event_schema.h"
#include "workload/schedule_gen.h"
#include "workload/topology_gen.h"
#include "workload/trace.h"

namespace {

using namespace comptx;  // NOLINT

struct Mix {
  std::string name;
  workload::AdtMix adt = workload::AdtMix::kNone;
  workload::TopologyKind kind = workload::TopologyKind::kSharedBottom;
  uint32_t systems = 0;
  // Shared-bottom defaults: order-3 chains (order 2 degenerates to a
  // join that Theorem 4 decides bit-level, bypassing the semantic rule)
  // with one chain per root and a single cross-root leaf pair on the
  // shared bottom — the shape where the semantic rule actually decides.
  uint32_t roots = 2;
  uint32_t fanout = 1;
  uint32_t instances = 2;
};

struct Row {
  std::string mix;
  uint32_t systems = 0;
  size_t nodes = 0;
  size_t erased_conflicts = 0;   // conflict bits the specs prove commuting
  size_t comp_c_semantic = 0;    // batch verdicts with the spec attached
  size_t comp_c_raw = 0;         // batch verdicts on the stripped twins
  size_t static_decided = 0;     // systems the analyzer decides exactly
  size_t semantic_decided = 0;   // of those, decided by the semantic rule
  size_t one_sided_violations = 0;  // raw Comp-C, semantic not
  bench::Stats semantic_us;      // batch reduction, spec attached
  bench::Stats raw_us;           // batch reduction, stripped twins
};

/// The same execution with the spec events dropped: identical conflict
/// bits, nothing erased.  What a spec-unaware certifier would see.
CompositeSystem StripSpec(const CompositeSystem& cs) {
  auto events = testing::SystemToEvents(cs);
  COMPTX_CHECK(events.ok()) << events.status().ToString();
  std::vector<workload::TraceEvent> kept;
  kept.reserve(events->size());
  for (const workload::TraceEvent& e : *events) {
    if (!workload::IsAdtLayerEvent(e.kind)) kept.push_back(e);
  }
  auto raw = testing::BuildSystem(kept);
  COMPTX_CHECK(raw.ok()) << raw.status().ToString();
  return *std::move(raw);
}

/// Conflict pairs of `cs` the attached spec erases, over all schedules.
size_t CountErased(const CompositeSystem& cs) {
  if (!cs.HasSpec()) return 0;
  size_t erased = 0;
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    cs.schedule(ScheduleId(s)).conflicts.ForEach([&](NodeId a, NodeId b) {
      if (a.index() < b.index() && cs.SemanticallyCommutes(a, b)) ++erased;
    });
  }
  return erased;
}

Row RunMix(const Mix& mix) {
  Row row;
  row.mix = mix.name;
  row.systems = mix.systems;

  std::vector<CompositeSystem> tagged;
  std::vector<CompositeSystem> raw;
  tagged.reserve(mix.systems);
  raw.reserve(mix.systems);
  for (uint32_t i = 0; i < mix.systems; ++i) {
    Rng rng(20260809u + i * 17u);
    workload::TopologySpec tspec;
    tspec.kind = mix.kind;
    tspec.depth =
        mix.kind == workload::TopologyKind::kSharedBottom ? 3 : 2;
    tspec.branches = 2;
    tspec.roots = mix.roots;
    tspec.fanout = mix.fanout;
    CompositeSystem cs = workload::GenerateTopology(tspec, rng);
    workload::ExecutionGenSpec espec;
    espec.adt = mix.adt;
    espec.adt_instances = mix.instances;
    auto populated = workload::PopulateExecution(cs, espec, rng);
    COMPTX_CHECK(populated.ok()) << populated.ToString();
    row.nodes += cs.NodeCount();
    row.erased_conflicts += CountErased(cs);
    raw.push_back(StripSpec(cs));
    tagged.push_back(std::move(cs));
  }
  std::vector<const CompositeSystem*> tagged_ptrs;
  std::vector<const CompositeSystem*> raw_ptrs;
  for (const CompositeSystem& cs : tagged) tagged_ptrs.push_back(&cs);
  for (const CompositeSystem& cs : raw) raw_ptrs.push_back(&cs);

  ReductionOptions reduction;
  reduction.keep_fronts = false;

  // Interleaved passes, so drift hits both sweeps alike.
  struct Pass {
    double semantic_us = 0;
    double raw_us = 0;
  };
  std::vector<analysis::SweepVerdict> semantic_verdicts;
  std::vector<analysis::SweepVerdict> raw_verdicts;
  const std::vector<Pass> passes = bench::RunPasses([&] {
    Pass pass;
    bench::Clock::time_point start = bench::Clock::now();
    semantic_verdicts = analysis::SweepCompC(tagged_ptrs, reduction);
    pass.semantic_us = bench::MicrosSince(start);
    start = bench::Clock::now();
    raw_verdicts = analysis::SweepCompC(raw_ptrs, reduction);
    pass.raw_us = bench::MicrosSince(start);
    return pass;
  });
  row.semantic_us = bench::Summarize(passes, &Pass::semantic_us);
  row.raw_us = bench::Summarize(passes, &Pass::raw_us);

  staticcheck::AnalyzerOptions aopts;
  aopts.assume_valid = true;  // PopulateExecution validates.
  aopts.explain = false;

  for (size_t i = 0; i < tagged.size(); ++i) {
    COMPTX_CHECK(semantic_verdicts[i].ok)
        << semantic_verdicts[i].status_message;
    COMPTX_CHECK(raw_verdicts[i].ok) << raw_verdicts[i].status_message;
    row.comp_c_semantic += semantic_verdicts[i].comp_c ? 1 : 0;
    row.comp_c_raw += raw_verdicts[i].comp_c ? 1 : 0;
    const staticcheck::StaticAnalysis analysis =
        staticcheck::AnalyzeConfiguration(tagged[i], aopts);
    if (analysis.verdict != staticcheck::SafetyVerdict::kNeedsDynamic) {
      ++row.static_decided;
      row.semantic_decided += analysis.semantic ? 1 : 0;
      COMPTX_CHECK_EQ(analysis.verdict == staticcheck::SafetyVerdict::kSafe,
                      semantic_verdicts[i].comp_c)
          << row.mix << " system " << i << ": analyzer says "
          << staticcheck::SafetyVerdictToString(analysis.verdict)
          << ", reason: " << analysis.reason;
    }
    // Mask-only soundness: the spec can only admit, never reject.
    row.one_sided_violations +=
        raw_verdicts[i].comp_c && !semantic_verdicts[i].comp_c;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunStart run_start;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_semantics.json";
  using workload::AdtMix;
  using workload::TopologyKind;
  const std::vector<Mix> mixes = {
      {"counter_shared_bottom", AdtMix::kCounter, TopologyKind::kSharedBottom,
       150},
      {"set_shared_bottom", AdtMix::kSet, TopologyKind::kSharedBottom, 150},
      {"queue_shared_bottom", AdtMix::kQueue, TopologyKind::kSharedBottom,
       150},
      {"escrow_shared_bottom", AdtMix::kEscrow, TopologyKind::kSharedBottom,
       150},
      {"mixed_shared_bottom", AdtMix::kMixed, TopologyKind::kSharedBottom,
       150},
      // Dense single-instance counters: maximal same-instance pairs, so
      // the erasure volume (and the admission gap) peaks here.
      {"counter_dense", AdtMix::kCounter, TopologyKind::kSharedBottom, 150,
       /*roots=*/3, /*fanout=*/2, /*instances=*/1},
      // General layered DAGs: the semantic rule rarely applies, the
      // admission gap must still be one-sided.
      {"mixed_layered_dag", AdtMix::kMixed, TopologyKind::kLayeredDag, 100,
       /*roots=*/3, /*fanout=*/2, /*instances=*/2},
  };

  std::vector<bench::Json> rows;
  size_t total_semantic_decided = 0;
  size_t total_admits_extra = 0;
  for (const Mix& mix : mixes) {
    const Row r = RunMix(mix);
    total_semantic_decided += r.semantic_decided;
    total_admits_extra += r.comp_c_semantic - r.comp_c_raw;
    bench::AddRow(rows, bench::Json()
                            .Set("mix", r.mix)
                            .Set("systems", r.systems)
                            .Set("nodes", r.nodes)
                            .Set("erased_conflicts", r.erased_conflicts)
                            .Set("comp_c_semantic", r.comp_c_semantic)
                            .Set("comp_c_raw", r.comp_c_raw)
                            .Set("static_decided", r.static_decided)
                            .Set("semantic_decided", r.semantic_decided)
                            .Set("reduction_semantic_us", r.semantic_us)
                            .Set("reduction_raw_us", r.raw_us)
                            .Mismatches(r.one_sided_violations));
  }
  const int code = bench::WriteReport(
      run_start, argc > 1 ? argv[1] : "BENCH_semantics.json",
      "E16_semantic_commutativity",
      bench::Json()
          .Set("semantic_admits_extra", total_admits_extra)
          .Set("semantic_rule_decided", total_semantic_decided)
          .Set("rows", rows));
  return code == 0 && total_semantic_decided > 0 ? 0 : 1;
}
