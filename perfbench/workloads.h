// The workloads (end-to-end run) and the layer ledger (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "yardstick.h"

namespace perfbench {

/// Runs `config.workload` end to end for `config.seconds` and fills the
/// end-to-end metrics with raw timings.  The workload samples `yard`
/// between the blocks it times.  Spans go to `spans` when it is enabled.
RunResult RunWorkload(const RunConfig& config, SpanLog& spans,
                      Yardstick& yard);

/// Rescales every timing among `result`'s end-to-end metrics to the
/// nominal machine speed measured by `yard`: setup_s by the passes taken
/// during set-up (the first `setup_passes`), the rest by the passes taken
/// after it.  Keeps the raw values and the factors as diagnostics.
void ReportAtNominalSpeed(const Yardstick& yard, size_t setup_passes,
                          RunResult& result);

/// Times each layer's public functions from outside on the workload's
/// own generated inputs and fills the per-layer metrics.
void RunLedger(const RunConfig& config, RunResult& result, SpanLog& spans);

const std::vector<std::string>& WorkloadNames();

/// Every end-to-end metric; each workload reports all of them.
const std::vector<std::string>& EndToEndMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
