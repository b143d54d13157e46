#ifndef COMPTX_DISTRIBUTED_TOPOLOGY_H_
#define COMPTX_DISTRIBUTED_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "core/ids.h"
#include "service/client.h"
#include "util/status_or.h"
#include "workload/trace.h"

namespace comptx::distributed {

// ---- topology specs ----------------------------------------------------

/// A process topology: which comptx_serve instances exist and who pulls
/// from whom.  Parsed from the "# comptx-topology v1" text format:
///
///   # comptx-topology v1
///   node root
///   node left
///   node right
///   edge root left
///   edge root right
///
/// `edge P C` means P subscribes to C's ORDER_STREAM (data flows C → P).
/// The spec must be an in-tree: exactly one root (a node that is nobody's
/// child), every other node the child of exactly one parent, no cycles.
/// The tree restriction is what makes the merged event count at the root
/// deterministic — every non-broadcast event travels exactly one path up,
/// so the driver can barrier on an exact stream watermark instead of
/// quiescence heuristics (DESIGN.md §15.4).
struct TopologySpec {
  std::vector<std::string> nodes;
  std::vector<std::pair<uint32_t, uint32_t>> edges;  // (parent, child)

  uint32_t root = 0;
  std::vector<uint32_t> leaves;                // nodes with no children
  std::vector<std::vector<uint32_t>> children; // per node, spec order
  std::vector<uint32_t> parent_of;             // kInvalidIndex at the root

  /// Node index by name; kInvalidIndex when absent.
  uint32_t Find(const std::string& name) const;
};

StatusOr<TopologySpec> ParseTopologySpec(const std::string& text);
StatusOr<TopologySpec> LoadTopologySpec(const std::string& path);

// ---- trace partitioning ------------------------------------------------

/// A full composite trace split across the leaves of a topology
/// (DESIGN.md §15.4).  Execution trees related by any cross-tree event
/// (conflicts, outputs, inputs — or operations tagged with the same ADT
/// instance, which the semantic conflict mask turns into conflicts) are
/// grouped into components with a union-find and each component is
/// assigned whole to one leaf — trees are never split or duplicated,
/// which is what keeps the per-edge root-ordinal prefix property the
/// two-phase commit relies on.  Schedule declarations and the semantic
/// (ADT) events are broadcast to every leaf; the parent-side remapper
/// dedups the copies back into one entity.  kCommit/kCommitThrough
/// events are dropped: in a distributed run the cross-node two-phase
/// commit is the only commit path.
///
/// The partition also *reorders* the trace — broadcasts first, then one
/// component at a time — and slices it into phases only at component
/// boundaries.  That alignment is what makes the multi-shot commit
/// sound: commit_through k after a phase seals exactly the roots of the
/// finished components, and no later phase carries an event that touches
/// a sealed root.  All per-phase counters are cumulative.
struct TracePartition {
  /// leaf_phases[leaf][phase] = that leaf's slice of the phase, with node
  /// indices renumbered into the leaf's dense creation-order space.
  /// (Schedule/ADT/class indices survive unchanged: broadcasts preserve
  /// the full trace's creation order at every leaf.)
  std::vector<std::vector<std::vector<workload::TraceEvent>>> leaf_phases;

  /// Cumulative expected root stream watermark per phase: every
  /// non-broadcast forwarded event once plus every broadcast event once
  /// (the root dedups the other copies).
  std::vector<uint64_t> expected_root_events;

  /// Cumulative kRoot count per phase — the commit watermark the driver
  /// PREPAREs after the phase's barrier.
  std::vector<uint64_t> roots_through;

  uint64_t components = 0;       // union-find components over the trees
  uint64_t broadcast_events = 0; // unique broadcast events in the trace
  uint64_t dropped_commits = 0;  // kCommit/kCommitThrough events dropped
};

/// Partitions `trace` across `leaf_count` leaves into at most `phases`
/// component-aligned phases (fewer when the trace has fewer components).
/// Fails on malformed traces (references to nodes that were never
/// created).
StatusOr<TracePartition> PartitionTrace(
    const std::vector<workload::TraceEvent>& trace, size_t leaf_count,
    size_t phases);

/// Single-phase convenience overload.
StatusOr<TracePartition> PartitionTrace(
    const std::vector<workload::TraceEvent>& trace, size_t leaf_count);

/// Generates `roots` root transactions as ~`group_size`-root independent
/// composite groups — distinct schedules, prefixed names, offset indices
/// — and concatenates their traces.  Within a group everything may
/// conflict; across groups nothing does, so PartitionTrace finds one
/// component per group and can spread them over the leaves and commit
/// them in phases (a single connected system would degenerate to one
/// phase on one leaf).  `disorder` 0 generates order-preserving
/// (certifiable) executions; >0 injects serialization anomalies with
/// that probability.  Shared by comptx_topology, bench_distributed and
/// the distributed tests so they all drive the same workload shape.
StatusOr<std::vector<workload::TraceEvent>> GenerateGroupedTrace(
    uint32_t roots, uint64_t seed, double disorder, uint32_t group_size = 3);

// ---- multi-process runner ----------------------------------------------

struct RunnerOptions {
  std::string serve_binary;  // path to the comptx_serve executable
  std::string data_root;     // per-node dirs are created underneath

  size_t phases = 4;
  uint64_t barrier_timeout_ms = 60000;
  uint64_t spawn_timeout_ms = 15000;

  /// Extra OPEN options appended after "stream=1" (certifier knobs).
  std::string open_options;

  /// Forwarded to every comptx_serve: --fsync (always, so an acked append
  /// survives SIGKILL — the recovery drill depends on it).
  std::string fsync = "always";

  bool verbose = false;  // narrate spawn/attach/barrier steps to stderr
};

struct PhaseVerdict {
  uint64_t k = 0;            // commit watermark sealed after this phase
  uint64_t root_events = 0;  // root stream watermark at the barrier
  bool certifiable = false;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t commit_watermark = 0;
  std::string failure;  // root certifier's failure detail, if any
};

/// Kill drill: SIGKILL `node` right after the phase `after_phase` slice
/// has been appended and drained at the leaves (so the parent holds a
/// partially consumed stream suffix), then respawn it on the same port
/// and data dir.  Recovery rebuilds its sessions and stream logs; the
/// parent's ingestor reconnects and resumes from its durable cursor.
struct DrillConfig {
  std::string node;
  size_t after_phase = 0;
};

struct TopologyReport {
  std::vector<PhaseVerdict> phases;
  /// The root session's full event stream in root index space — the
  /// merged trace, ready for ApplyTraceEvent + the batch oracle.
  std::vector<workload::TraceEvent> merged;
  uint64_t expected_root_events = 0;
  uint64_t total_roots = 0;
  uint64_t resubscribes = 0;  // summed over all nodes' STATS
};

/// Spawns one comptx_serve process per topology node, opens a stream
/// session on each, wires the edges with ATTACH, and drives a partitioned
/// trace through the leaves in phases — barrier on the root's exact
/// stream watermark, then two-phase commit (PREPARE/DECIDE) per phase.
/// Owns the child processes; the destructor SIGKILLs whatever Shutdown
/// did not reap.
class TopologyRunner {
 public:
  TopologyRunner(TopologySpec spec, RunnerOptions options);
  ~TopologyRunner();

  TopologyRunner(const TopologyRunner&) = delete;
  TopologyRunner& operator=(const TopologyRunner&) = delete;

  /// Spawn + open + attach.  After Start() the topology is live.
  Status Start();

  /// Drives `trace` through the topology and reports the per-phase
  /// verdict sequence plus the merged root trace.  `drill`, when given,
  /// runs the SIGKILL/respawn drill at the configured phase.
  StatusOr<TopologyReport> Drive(const std::vector<workload::TraceEvent>& trace,
                                 const DrillConfig* drill = nullptr);

  /// SIGKILL a node's process (no drain; the point is the crash).
  Status Kill(const std::string& node);

  /// Respawn a killed node on its old port and data dir, then re-ATTACH
  /// its outgoing edges (controller state is in-memory; the cursors come
  /// back from the WAL).  Parents reconnect on their own.
  Status Respawn(const std::string& node);

  /// Graceful stop: SHUTDOWN every live node, reap them all.
  Status Shutdown();

  const TopologySpec& spec() const { return spec_; }

 private:
  struct Proc {
    pid_t pid = -1;
    int port = 0;
    uint64_t session = 0;
    std::string dir;        // the node's scratch dir (data/, port, log)
    bool running = false;
  };

  Status Spawn(uint32_t node, int fixed_port);
  StatusOr<int> AwaitPortFile(const std::string& path) const;
  StatusOr<service::ServiceClient> DialNode(uint32_t node) const;
  /// ATTACHes `node`'s outgoing edges at `node` (used by Start and
  /// Respawn; edge ids are stable across respawns).
  Status AttachEdges(uint32_t node);
  Status BarrierOnRoot(uint64_t expected);
  StatusOr<PhaseVerdict> CommitPhase(uint64_t k);
  StatusOr<std::vector<workload::TraceEvent>> FetchMerged(uint64_t expected);
  StatusOr<uint64_t> SumResubscribes();
  void Reap(uint32_t node, bool kill);

  TopologySpec spec_;
  RunnerOptions options_;
  std::vector<Proc> procs_;
  std::vector<uint64_t> edge_ids_;  // parallel to spec_.edges
};

}  // namespace comptx::distributed

#endif  // COMPTX_DISTRIBUTED_TOPOLOGY_H_
