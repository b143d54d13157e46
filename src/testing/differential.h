#ifndef COMPTX_TESTING_DIFFERENTIAL_H_
#define COMPTX_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/composite_system.h"
#include "util/status_or.h"

namespace comptx::testing {

/// Test-only fault injection: flips one decider's verdict so the harness
/// (and its tests) can prove that a real bug in that decider would be
/// detected, shrunk and reported.  Never enabled outside tests/CLI flags.
enum class InjectedBug : uint8_t {
  kNone,
  /// Negate the hierarchical oracle's verdict.
  kFlipOracle,
  /// Negate the online certifier's final verdict.
  kFlipOnline,
  /// Negate the SCC/FCC/JCC verdict on applicable configurations.
  kFlipCriteria,
  /// Negate the static analyzer's SAFE/UNSAFE verdict when it decides.
  kFlipStatic,
  /// Corrupt the semantic conflict layer: keep one conflict pair the
  /// attached spec erases, simulating a decider that consults raw bits
  /// where EffectiveConflict applies.  Only bites on systems with a spec
  /// that masks at least one load-bearing pair.
  kFlipCommutes,
};

const char* InjectedBugToString(InjectedBug bug);

struct DifferentialOptions {
  /// When > 0 and the event stream has at most this many events, also
  /// cross-check the online verdict after *every* prefix against
  /// BatchPrefixVerdicts (quadratic in the stream length; keep small).
  uint32_t prefix_event_limit = 0;

  InjectedBug inject = InjectedBug::kNone;
};

/// One detected disagreement between two deciders (or a broken internal
/// invariant of one of them).  `check` is a stable machine-readable kind
/// ("batch-vs-online", "batch-vs-oracle", "batch-vs-scc", ...); `detail`
/// is the human-readable diagnosis.
struct Disagreement {
  std::string check;
  std::string detail;
};

/// Outcome of one differential conformance run over a single system.
struct DifferentialReport {
  /// The batch reduction's verdict — the reference all others are held to.
  bool comp_c = false;
  uint32_t order = 0;
  std::vector<Disagreement> disagreements;

  bool agreed() const { return disagreements.empty(); }
  /// "check: detail; check: detail" (empty when agreed).
  std::string Summary() const;
};

/// Runs every decider on `cs` and reports any disagreement with the
/// reference:
///
///   * batch RunReduction/CheckCompC (the reference verdict),
///   * the serial-front witness check of Theorem 1 on accepted systems,
///   * the online Certifier fed the system's event stream (final verdict,
///     optionally every prefix verdict),
///   * the hierarchical-demand oracle (criteria/oracle.h): sound
///     everywhere, exact on single-meet configurations,
///   * the SCC/FCC/JCC criteria on their configurations (Theorems 2-4),
///   * the static configuration analyzer, whenever it decides (SAFE and
///     UNSAFE are exact verdicts, never conservative),
///   * the semantic conflict layer on spec-carrying systems: the spec's
///     erasure materialized into raw conflict bits, spec detached, must
///     reduce to the same verdict.
///
/// A Status error means malformed input (validation failure); verdict
/// disagreements are reported through the result, never as errors.
StatusOr<DifferentialReport> CheckConformance(
    const CompositeSystem& cs, const DifferentialOptions& options = {});

}  // namespace comptx::testing

#endif  // COMPTX_TESTING_DIFFERENTIAL_H_
