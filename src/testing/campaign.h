#ifndef COMPTX_TESTING_CAMPAIGN_H_
#define COMPTX_TESTING_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "testing/differential.h"
#include "testing/metamorphic.h"
#include "testing/shrink.h"
#include "testing/witness.h"
#include "util/status_or.h"

namespace comptx::testing {

/// Parameters of one fuzz campaign: `traces` random composite executions
/// are generated from `seed` (one derived seed per trace, so any failure
/// is reproducible from the campaign seed alone), pushed through every
/// decider, metamorphically perturbed, and any disagreement is
/// delta-debugged to a minimal witness.
struct CampaignOptions {
  uint64_t seed = 1;
  uint32_t traces = 100;

  DifferentialOptions differential;

  bool run_metamorphic = true;
  MetamorphicOptions metamorphic;

  /// Every k-th trace additionally cross-checks the online verdict after
  /// *every* prefix against the batch checker (quadratic; 0 disables).
  uint32_t prefix_check_every = 16;
  /// Prefix cross-check only on streams up to this many events.
  uint32_t prefix_event_limit = 120;

  ShrinkOptions shrink;

  /// Called (serially, in trace order) for each minimized witness.
  std::function<void(const WitnessRecord&)> on_witness;
};

struct CampaignStats {
  uint32_t traces = 0;
  uint32_t comp_c_count = 0;       // traces the batch reducer accepted
  uint32_t single_meet = 0;        // stack/fork/join shaped traces
  uint32_t prefix_checked = 0;     // traces with the per-prefix cross-check
  uint32_t metamorphic_checked = 0;
  uint64_t total_events = 0;       // events across all generated traces
  uint32_t failing_traces = 0;     // traces with >= 1 disagreement
  uint64_t shrink_predicate_calls = 0;
};

struct CampaignResult {
  CampaignStats stats;
  /// One minimized witness per failing trace (its first disagreement).
  std::vector<WitnessRecord> witnesses;

  bool clean() const { return witnesses.empty(); }
};

/// Runs the campaign: generation and differential checking fan out over
/// the global thread pool (one independent check per trace); the batch
/// verdicts are then re-swept through analysis::SweepCompC with its
/// disagreement hooks as an aggregation cross-check; failures are shrunk
/// serially.  A Status error means the harness itself broke (generator or
/// malformed-input errors), not that a disagreement was found —
/// disagreements are the witnesses in the result.
StatusOr<CampaignResult> RunFuzzCampaign(const CampaignOptions& options);

}  // namespace comptx::testing

#endif  // COMPTX_TESTING_CAMPAIGN_H_
