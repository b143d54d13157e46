#ifndef COMPTX_WORKLOAD_TRACE_H_
#define COMPTX_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/composite_system.h"
#include "util/status_or.h"

namespace comptx::workload {

/// One record of a comptx trace, viewed as an event of a streaming
/// execution.  The line-oriented trace format ("comptx-trace v1") is a
/// sequence of such events: construction events build the composite
/// system incrementally, and `kCommit` marks a root transaction as
/// finished (it does not change the system; it is the signal online
/// consumers use to seal and garbage-collect state).
enum class TraceEventKind : uint8_t {
  kSchedule,      // schedule <name>
  kRoot,          // root <schedule> <name>
  kSub,           // sub <parent> <schedule> <name>
  kLeaf,          // leaf <parent> <name>
  kConflict,      // conflict <a> <b>
  kWeakOutput,    // weak_out <a> <b>
  kStrongOutput,  // strong_out <a> <b>
  kWeakInput,     // weak_in <schedule> <a> <b>
  kStrongInput,   // strong_in <schedule> <a> <b>
  kIntraWeak,     // intra_weak <txn> <a> <b>
  kIntraStrong,   // intra_strong <txn> <a> <b>
  kCommit,        // commit <root>
  kCommitThrough, // commit_through <k>: every root with creation index < k
                  // is committed.  A cumulative watermark form of kCommit,
                  // counted in root-creation order so the value survives
                  // SaveTrace round trips (which reorder relation events
                  // but preserve node creation order).
  // Semantic commutativity layer (ADT specs).  ADTs and operation classes
  // are referenced by declaration-order index, like nodes and schedules;
  // class indices are global across ADTs.
  kAdtDecl,       // adt <name>
  kAdtOp,         // adtop <adt> <name>
  kCommute,       // commute <class1> <class2>
  kClash,         // clash <class1> <class2>
  kTag,           // tag <node> <class> <instance>
};

const char* TraceEventKindToString(TraceEventKind kind);

/// A parsed trace record.  Node and schedule references are creation-order
/// indices, exactly as in the text format; unused fields hold
/// kInvalidIndex.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSchedule;
  std::string name;                  // kSchedule/kRoot/kSub/kLeaf/kAdtDecl/kAdtOp
  uint32_t schedule = kInvalidIndex; // kRoot/kSub/kWeakInput/kStrongInput
  uint32_t parent = kInvalidIndex;   // kSub/kLeaf parent; kIntra* txn;
                                     // kCommit root; kTag node
  uint32_t a = kInvalidIndex;        // first pair member; kCommitThrough
                                     // watermark; kAdtOp adt; kTag class
  uint32_t b = kInvalidIndex;        // second pair member; kTag instance
};

/// Renders `event` as one trace line (without trailing newline).
std::string FormatTraceEvent(const TraceEvent& event);

/// Parses one trace event line (no header, no "end", no trailing
/// newline) — the unit the service wire protocol ships in APPEND bodies.
/// Rejects "end" and blank lines: a framed protocol has no use for the
/// file format's terminator.
StatusOr<TraceEvent> ParseTraceEventLine(const std::string& line);

/// Parses the body of a trace into its event sequence.  Requires the
/// "comptx-trace v1" header and the final "end" record; the events in
/// between are returned in stream order.  This is the streaming view of a
/// trace: replaying the events through ApplyTraceEvent reproduces
/// LoadTrace, and feeding them to an online::Certifier certifies the
/// execution prefix by prefix.
StatusOr<std::vector<TraceEvent>> ParseTraceEvents(const std::string& text);

/// Applies one construction event to `cs`.  kCommit is a no-op (the
/// composite system records what executed, not transaction lifecycle).
/// Errors carry no line numbers; callers tracking positions should wrap
/// the message.
Status ApplyTraceEvent(CompositeSystem& cs, const TraceEvent& event);

/// Serializes a composite execution to a line-oriented text trace
/// ("comptx-trace v1").  Node references are ranks among the live node
/// ids and schedule references creation-order indices, so a round trip
/// of a system that released nothing reproduces identical ids; a windowed
/// system (CompositeSystem::ReleaseSubtree) is saved as its live window,
/// renumbered densely.  Names must not contain whitespace
/// (InvalidArgument otherwise).
StatusOr<std::string> SaveTrace(const CompositeSystem& cs);

/// Parses a trace produced by SaveTrace.  Structural and referential
/// errors are reported with the offending line number; the loaded system
/// is not implicitly validated (call Validate() for the Def 2-4 rules).
StatusOr<CompositeSystem> LoadTrace(const std::string& text);

}  // namespace comptx::workload

#endif  // COMPTX_WORKLOAD_TRACE_H_
