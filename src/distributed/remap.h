#ifndef COMPTX_DISTRIBUTED_REMAP_H_
#define COMPTX_DISTRIBUTED_REMAP_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/composite_system.h"
#include "util/status_or.h"
#include "workload/trace.h"

namespace comptx::distributed {

/// Index translation for one upstream edge of a distributed composite
/// topology (DESIGN.md §15).
///
/// Every comptx_serve process certifies its partition of the composite
/// trace under its own dense creation-order index space.  When a parent
/// subscribes to a child's ORDER_STREAM, the events arrive with the
/// *child's* indices; before they can be fed to the parent's certifier
/// "as if local" they must be rewritten into the parent session's index
/// space.  The SessionRemapper owns the parent-side state of that
/// rewrite:
///
///   - a *shadow* CompositeSystem mirroring the parent certifier's
///     accumulated system, used to allocate the next local index for each
///     creation event and to pre-validate relation events (an event the
///     shadow rejects would also be rejected by the certifier, so it is
///     dropped before it can poison the session);
///   - session-global name→index maps, so an entity broadcast by several
///     children (schedule declarations, ADT specs) merges into one local
///     entity instead of colliding — this is what turns N per-child
///     schedules of the same name into one shared "meet" schedule at the
///     parent, exactly the configuration the paper's pull-up rules are
///     about;
///   - per-edge index maps (EdgeTables) giving each remote index its
///     local meaning, plus the remote-root-ordinal → local-root-ordinal
///     map the two-phase commit uses to translate a parent commit
///     watermark k into each child's watermark (child roots arrive in
///     child ordinal order, so their local ordinals are monotone in the
///     child's and a parent prefix maps to a child prefix).
///
/// Durability: every table entry added while remapping a batch is also
/// serialized into a MappingDelta blob, which the session WAL persists in
/// the batch's kStreamCursor record (durability/wal.h).  Recovery replays
/// the WAL events through ApplyLocal (rebuilding the shadow and the name
/// maps) and folds each cursor record's delta back into its edge's tables
/// (FoldDelta), so a restarted parent resumes every edge from its durable
/// cursor with byte-identical translation state.
class SessionRemapper {
 public:
  /// What became of one remapped event.
  enum class Disposition : uint8_t {
    kForward,  // remapped in place; feed it to the certifier
    kDedup,    // an entity this session already has (broadcast copy or
               // crash-window refetch); tables updated, event dropped
    kReject,   // the shadow refused it; event dropped and counted
  };

  struct Remapped {
    Disposition disposition = Disposition::kForward;
    workload::TraceEvent event;  // valid when disposition == kForward
  };

  struct BatchResult {
    std::vector<workload::TraceEvent> events;  // forwarded, in order
    uint64_t deduped = 0;
    uint64_t rejected = 0;
    std::string delta;  // serialized MappingDelta for the cursor record
  };

  SessionRemapper() = default;

  SessionRemapper(const SessionRemapper&) = delete;
  SessionRemapper& operator=(const SessionRemapper&) = delete;

  /// Remaps one batch arriving on `edge` into the local index space,
  /// recording every new table entry in the returned delta.  Events the
  /// shadow rejects are dropped (counted in `rejected`), not fatal: one
  /// malformed child event must not wedge the edge.
  BatchResult RemapBatch(uint64_t edge,
                         const std::vector<workload::TraceEvent>& events);

  /// Recovery: applies one locally-logged (already remapped) event to the
  /// shadow and the name maps, mirroring what RemapBatch did before the
  /// restart.  Also used for events appended locally (commit watermarks
  /// are ignored — they do not change the system).
  Status ApplyLocal(const workload::TraceEvent& event);

  /// Recovery: folds a persisted MappingDelta back into `edge`'s tables.
  Status FoldDelta(uint64_t edge, const std::string& delta);

  /// The child-side commit watermark for `edge` implied by local
  /// watermark k: the number of `edge` roots whose local ordinal is < k.
  /// Child roots arrive in child ordinal order, so this counts a child
  /// prefix (DESIGN.md §15.3).
  uint64_t ChildWatermark(uint64_t edge, uint64_t k) const;

  const CompositeSystem& shadow() const { return shadow_; }

 private:
  struct EdgeTables {
    std::vector<uint32_t> nodes;      // remote node idx -> local
    std::vector<uint32_t> schedules;  // remote schedule idx -> local
    std::vector<uint32_t> adts;       // remote ADT idx -> local
    std::vector<uint32_t> classes;    // remote class idx -> local
    std::vector<uint32_t> roots;      // remote root ordinal -> local ordinal
  };

  /// Remaps one event under `tables`, appending any new entries to both
  /// the tables and `delta`.
  Remapped RemapOne(EdgeTables& tables, std::string& delta,
                    const workload::TraceEvent& event);

  /// Rewrites every index reference of `event` through its table in
  /// `tables`; false when one names an entity the remote never created on
  /// this edge (or one the shadow rejected), which becomes kInvalidIndex.
  static bool LookupRefs(const EdgeTables& tables,
                         workload::TraceEvent& event);

  EdgeTables& TablesFor(uint64_t edge) { return edges_[edge]; }

  CompositeSystem shadow_;
  std::unordered_map<uint64_t, EdgeTables> edges_;
  std::unordered_map<std::string, uint32_t> node_by_name_;
  std::unordered_map<std::string, uint32_t> sched_by_name_;
  // Local node index -> local root ordinal, and the creation-order list
  // of local root ordinals (its size is the local root count).
  std::unordered_map<uint32_t, uint32_t> root_ord_by_node_;
  std::vector<uint32_t> local_root_ords_;
};

// ---- MappingDelta codec ------------------------------------------------
//
// The opaque blob a kStreamCursor WAL record carries: a sequence of
// [u8 kind][varint remote][varint local] entries, one per table entry the
// batch added.  Kinds follow EdgeTables member order.

enum class DeltaKind : uint8_t {
  kNode = 0,
  kSchedule = 1,
  kAdt = 2,
  kClass = 3,
  kRoot = 4,
};

void AppendDeltaEntry(std::string& delta, DeltaKind kind, uint32_t remote,
                      uint32_t local);

struct DeltaEntry {
  DeltaKind kind = DeltaKind::kNode;
  uint32_t remote = 0;
  uint32_t local = 0;
};

/// Decodes a MappingDelta blob; fails on truncation or an unknown kind.
StatusOr<std::vector<DeltaEntry>> ParseDelta(const std::string& delta);

}  // namespace comptx::distributed

#endif  // COMPTX_DISTRIBUTED_REMAP_H_
