#include "testing/campaign.h"

#include <utility>

#include "analysis/sweep.h"
#include "core/correctness.h"
#include "core/diagnostic.h"
#include "criteria/fcc.h"
#include "criteria/jcc.h"
#include "criteria/scc.h"
#include "staticcheck/lint.h"
#include "testing/events.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/workload_spec.h"

namespace comptx::testing {

using workload::TraceEvent;

namespace {

/// One campaign trace: its derived seed, generated spec and outcome.
struct TraceCase {
  uint64_t seed = 0;
  workload::WorkloadSpec spec;
  std::string generator;  // spec rendered for witness records
  CompositeSystem system;
  std::vector<Disagreement> disagreements;
  bool comp_c = false;
  bool single_meet = false;
  bool prefix_checked = false;
  bool metamorphic_checked = false;
  size_t events = 0;
  Status error;  // harness-level failure (generator bug etc.)
};

uint64_t DeriveSeed(uint64_t campaign_seed, uint32_t index) {
  // SplitMix64 over (seed, index) so neighbouring campaigns do not share
  // trace streams.
  uint64_t z = campaign_seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

workload::WorkloadSpec RandomSpec(Rng& rng) {
  workload::WorkloadSpec spec;
  const workload::TopologyKind kinds[] = {
      workload::TopologyKind::kStack, workload::TopologyKind::kFork,
      workload::TopologyKind::kJoin, workload::TopologyKind::kLayeredDag};
  spec.topology.kind = kinds[rng.UniformInt(4)];
  spec.topology.depth = 2 + static_cast<uint32_t>(rng.UniformInt(3));
  spec.topology.branches = 1 + static_cast<uint32_t>(rng.UniformInt(3));
  spec.topology.roots = 2 + static_cast<uint32_t>(rng.UniformInt(4));
  spec.topology.fanout = 1 + static_cast<uint32_t>(rng.UniformInt(3));
  spec.topology.leaf_fraction = 0.4 * rng.UniformDouble();
  spec.execution.conflict_prob = 0.1 + 0.4 * rng.UniformDouble();
  spec.execution.disorder_prob = 0.6 * rng.UniformDouble();
  spec.execution.intra_weak_prob = 0.4 * rng.UniformDouble();
  spec.execution.intra_strong_prob = 0.5 * spec.execution.intra_weak_prob;
  // A third of the stream carries a commutativity spec, so the semantic
  // layer (EffectiveConflict in every decider, the semantic-mask check,
  // the semantic static rule) is fuzzed alongside the bit-level paths.
  if (rng.UniformInt(3) == 0) {
    const workload::AdtMix mixes[] = {
        workload::AdtMix::kCounter, workload::AdtMix::kSet,
        workload::AdtMix::kQueue, workload::AdtMix::kEscrow,
        workload::AdtMix::kMixed};
    spec.execution.adt = mixes[rng.UniformInt(5)];
    spec.execution.adt_instances =
        1 + static_cast<uint32_t>(rng.UniformInt(4));
  }
  return spec;
}

/// The predicate a witness is shrunk against: the candidate must still
/// produce a disagreement of the same kind, through the same checks that
/// found it.
FailurePredicate MakePredicate(const CampaignOptions& options,
                               const std::string& check,
                               uint64_t trace_seed,
                               const DifferentialOptions& differential) {
  const bool metamorphic = check.rfind("metamorphic-", 0) == 0;
  if (metamorphic) {
    MetamorphicOptions meta = options.metamorphic;
    meta.rename = check == "metamorphic-rename";
    meta.shuffle = check == "metamorphic-shuffle";
    meta.noop_leaves = check == "metamorphic-noop-leaves";
    return [check, meta, trace_seed](const CompositeSystem& cs) {
      if (!cs.Validate().ok()) return false;
      auto base = CheckCompC(cs);
      if (!base.ok()) return false;
      auto report = CheckMetamorphic(cs, base->correct, meta, trace_seed);
      if (!report.ok()) return false;
      for (const Disagreement& d : *report) {
        if (d.check == check) return true;
      }
      return false;
    };
  }
  return [check, differential](const CompositeSystem& cs) {
    auto report = CheckConformance(cs, differential);
    if (!report.ok()) return false;
    for (const Disagreement& d : report->disagreements) {
      if (d.check == check) return true;
    }
    return false;
  };
}

}  // namespace

StatusOr<CampaignResult> RunFuzzCampaign(const CampaignOptions& options) {
  const uint32_t n = options.traces;
  std::vector<TraceCase> cases(n);

  // Phase 1+2 (parallel): generate each trace and run every differential
  // and metamorphic check on it.  Each case is independent.
  analysis::ParallelMap<int>(n, [&](size_t i) {
    TraceCase& tc = cases[i];
    tc.seed = DeriveSeed(options.seed, static_cast<uint32_t>(i));
    Rng rng(tc.seed);
    tc.spec = RandomSpec(rng);
    tc.generator = workload::DescribeWorkloadSpec(tc.spec);
    // Pre-lint the generated spec: an error diagnostic here means the
    // spec generator itself produced garbage — a harness bug, not a
    // finding.
    for (const Diagnostic& d : staticcheck::LintWorkloadSpec(tc.spec)) {
      if (d.severity == DiagSeverity::kError) {
        tc.error = Status::Internal(
            StrCat("generated spec fails lint: ", FormatDiagnostic(d)));
        return 0;
      }
    }
    auto system = workload::GenerateSystem(tc.spec, tc.seed);
    if (!system.ok()) {
      tc.error = system.status();
      return 0;
    }
    tc.system = *std::move(system);

    DifferentialOptions differential = options.differential;
    if (options.prefix_check_every != 0 &&
        i % options.prefix_check_every == 0) {
      differential.prefix_event_limit = options.prefix_event_limit;
      tc.prefix_checked = true;
    }
    auto report = CheckConformance(tc.system, differential);
    if (!report.ok()) {
      tc.error = report.status();
      return 0;
    }
    tc.comp_c = report->comp_c;
    tc.disagreements = report->disagreements;
    tc.single_meet = criteria::IsStackSystem(tc.system) ||
                     criteria::IsForkSystem(tc.system) ||
                     criteria::IsJoinSystem(tc.system);
    auto events = SystemToEvents(tc.system);
    tc.events = events.ok() ? events->size() : 0;
    if (events.ok()) {
      // Pre-lint the serialized trace (event-level and structural checks;
      // the model rules already ran inside CheckConformance).  Error or
      // internal-error diagnostics on a generated trace are harness bugs.
      staticcheck::LintOptions lint_options;
      lint_options.model_rules = false;
      staticcheck::LintResult lint =
          staticcheck::LintTraceEvents(*events, lint_options);
      for (const Diagnostic& d : lint.diagnostics) {
        if (d.severity == DiagSeverity::kError ||
            d.code == DiagCode::kInternalError) {
          tc.error = Status::Internal(
              StrCat("generated trace fails lint: ", FormatDiagnostic(d)));
          return 0;
        }
      }
    }

    if (options.run_metamorphic) {
      auto meta = CheckMetamorphic(tc.system, tc.comp_c, options.metamorphic,
                                   tc.seed);
      if (!meta.ok()) {
        tc.error = meta.status();
        return 0;
      }
      tc.metamorphic_checked = true;
      for (Disagreement& d : *meta) {
        tc.disagreements.push_back(std::move(d));
      }
    }
    return 0;
  });

  CampaignResult result;
  result.stats.traces = n;
  for (const TraceCase& tc : cases) {
    if (!tc.error.ok()) {
      return Status::Internal(
          StrCat("campaign trace seed ", tc.seed, " (", tc.generator,
                 "): ", tc.error.message()));
    }
    result.stats.comp_c_count += tc.comp_c ? 1 : 0;
    result.stats.single_meet += tc.single_meet ? 1 : 0;
    result.stats.prefix_checked += tc.prefix_checked ? 1 : 0;
    result.stats.metamorphic_checked += tc.metamorphic_checked ? 1 : 0;
    result.stats.total_events += tc.events;
    result.stats.failing_traces += tc.disagreements.empty() ? 0 : 1;
  }

  // Phase 3: re-sweep all batch verdicts through the pool-backed sweep
  // driver with its disagreement hooks — an independent aggregation
  // cross-check (catches sweeps mixing up systems or verdicts).
  {
    std::vector<const CompositeSystem*> systems;
    std::vector<bool> expected;
    systems.reserve(n);
    expected.reserve(n);
    for (const TraceCase& tc : cases) {
      systems.push_back(&tc.system);
      expected.push_back(tc.comp_c);
    }
    analysis::SweepHooks hooks;
    std::vector<std::pair<size_t, std::string>> sweep_disagreements;
    hooks.on_disagreement = [&](size_t i, const std::string& description) {
      sweep_disagreements.emplace_back(i, description);
    };
    ReductionOptions reduction;
    reduction.keep_fronts = false;
    analysis::SweepCompC(systems, reduction, hooks, expected);
    for (auto& [index, description] : sweep_disagreements) {
      TraceCase& tc = cases[index];
      if (tc.disagreements.empty()) ++result.stats.failing_traces;
      tc.disagreements.push_back({"sweep-vs-batch", description});
    }
  }

  // Phase 4 (serial): delta-debug each failing trace's first disagreement
  // to a minimal witness.
  for (uint32_t i = 0; i < n; ++i) {
    TraceCase& tc = cases[i];
    if (tc.disagreements.empty()) continue;
    const Disagreement& first = tc.disagreements.front();

    WitnessRecord record;
    record.seed = tc.seed;
    record.check = first.check;
    record.detail = first.detail;
    record.injected = InjectedBugToString(options.differential.inject);
    record.generator = tc.generator;
    record.id = StrCat(first.check, "-seed", tc.seed);

    auto events = SystemToEvents(tc.system);
    if (!events.ok()) {
      return Status::Internal(StrCat("witness serialization failed: ",
                                     events.status().message()));
    }
    record.events_initial = events->size();

    DifferentialOptions shrink_differential = options.differential;
    if (tc.prefix_checked) {
      shrink_differential.prefix_event_limit = options.prefix_event_limit;
    }
    FailurePredicate predicate = MakePredicate(options, first.check, tc.seed,
                                               shrink_differential);
    ShrinkStats shrink_stats;
    auto shrunk = ShrinkEvents(*std::move(events), predicate, options.shrink,
                               &shrink_stats);
    result.stats.shrink_predicate_calls += shrink_stats.predicate_calls;
    if (shrunk.ok()) {
      record.events = *std::move(shrunk);
      record.events_final = record.events.size();
      if (auto minimized = BuildSystem(record.events); minimized.ok()) {
        if (auto verdict = CheckCompC(*minimized); verdict.ok()) {
          record.comp_c = verdict->correct;
        }
      }
    } else {
      // The failure did not reproduce on the rebuilt events (flaky or
      // aggregation-level): keep the unshrunk trace as the witness.
      record.events = *SystemToEvents(tc.system);
      record.events_final = record.events.size();
      record.comp_c = tc.comp_c;
      record.detail += " [shrink failed: ";
      record.detail += shrunk.status().message();
      record.detail += "]";
    }
    if (options.on_witness) options.on_witness(record);
    result.witnesses.push_back(std::move(record));
  }
  return result;
}

}  // namespace comptx::testing
