// Seeded input generators for the workloads.  The programs under
// test only ever see what these produce; the same seed gives the same
// inputs.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <vector>

#include "core/composite_system.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace perfbench {

using Events = std::vector<comptx::workload::TraceEvent>;

/// stream_window: an endless two-level execution.  Roots live on schedule
/// R; each root invokes one or two subtransactions on the shared lower
/// schedules S0..S{k-1}, each with one leaf.  A new subtransaction
/// conflicts with a seeded subset of the live roots' subtransactions on
/// the same lower schedule, and every such pair is ordered oldest first
/// at both levels (output orders on S and R, the propagated input order
/// on S), so the stream stays certifiable forever.  Every 4 roots a
/// commit_through watermark seals all but the newest 16 roots.
class StreamWindowGen {
 public:
  explicit StreamWindowGen(uint64_t seed);

  /// Appends exactly `n` events to `out`.
  void Next(size_t n, Events& out);

  uint64_t roots() const { return roots_; }

 private:
  void EmitRoot();

  struct LiveSub {
    uint64_t root = 0;  // root ordinal
    uint32_t sub = 0;
    uint32_t leaf = 0;
  };

  comptx::Rng rng_;
  uint64_t roots_ = 0;
  uint32_t next_node_ = 0;
  std::vector<std::vector<LiveSub>> live_;  // per lower schedule
  Events pending_;
  size_t pending_pos_ = 0;
};

/// One pre-generated execution with its batch verdict.
struct Execution {
  Events events;
  comptx::CompositeSystem system;
  bool comp_c = false;
};

/// stream_window's verdict probes: small composite executions (layered
/// DAGs, 8 roots, ~140 events).  Two thirds come from order-preserving
/// schedulers (mostly Comp-C) and one third carry injected disorder (not
/// Comp-C), so the served path must both accept and reject.
std::vector<Execution> GenerateProbeCorpus(uint64_t seed, size_t count);

/// batch_audit: layered-DAG executions at 16, 32 or 64 roots.  Half come
/// from order-preserving schedulers at depth 2 and are Comp-C (the full
/// reduction and the serial witness), half from plain random schedules at
/// depth 3 and are not (failing early).  Drawn until each index has its
/// verdict, so the mix is the same for every seed.
std::vector<Execution> GenerateAuditCorpus(uint64_t seed, size_t count);

/// The trace's events as the online certifier and the batch reducer see
/// them (creation order, relations after creations).
Events EventsOf(const comptx::CompositeSystem& cs);

/// `events` cut into consecutive requests of at most `size` events.
std::vector<Events> Chunk(const Events& events, size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
