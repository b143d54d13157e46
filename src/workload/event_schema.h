#ifndef COMPTX_WORKLOAD_EVENT_SCHEMA_H_
#define COMPTX_WORKLOAD_EVENT_SCHEMA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string_view>

#include "workload/trace.h"

namespace comptx::workload {

/// The trace-event schema: for each TraceEventKind, its record name and
/// its fields in order.  This table is the only place a kind's fields are
/// listed.  The text format (a line "<name> <field> <field> ...") and the
/// packed binary format (a kind byte, then each field as a varint or a
/// length-prefixed name) write the fields in this one order, and every
/// walk over an event's references (renumbering, dependency and
/// partition walks, snapshot translation) reads the roles from here.

/// What one field of an event holds.  The first four roles are index
/// spaces: creation-order indices that some creation event appends to.
enum class FieldRole : uint8_t {
  kNode,      // a node of the forest, by creation order
  kSchedule,  // a schedule, by declaration order
  kAdt,       // an ADT, by declaration order
  kClass,     // an operation class, by declaration order across ADTs
  kInstance,  // an ADT instance id: a literal shared by every tag naming it
  kCount,     // a root count (commit_through's watermark)
  kName,      // the event's name string
};

inline constexpr size_t kIndexSpaceCount = 4;

constexpr bool IsIndexSpace(FieldRole role) {
  return static_cast<size_t>(role) < kIndexSpaceCount;
}

/// One field: its role and the TraceEvent member holding it (null for
/// kName, which lives in TraceEvent::name).
struct EventField {
  FieldRole role;
  uint32_t TraceEvent::*slot;
};

/// Traits of a kind beyond its fields.
enum EventTrait : uint8_t {
  kBroadcast = 1 << 0,  // a declaration every partition of a trace needs
                        // (schedules and the ADT spec); names no node
  kCommitMarker = 1 << 1,  // a commit record: changes no system state
};

struct EventLayout {
  constexpr EventLayout(TraceEventKind kind, const char* name,
                        std::optional<FieldRole> creates, uint8_t traits,
                        std::initializer_list<EventField> fields)
      : kind(kind), name(name), creates(creates), traits(traits),
        field_count(static_cast<uint8_t>(fields.size())) {
    size_t i = 0;
    for (const EventField& field : fields) slots[i++] = field;
  }

  TraceEventKind kind;
  const char* name;                 // record name in the text format
  std::optional<FieldRole> creates; // index space a creation appends to
  uint8_t traits;                   // EventTrait bits
  uint8_t field_count;
  std::array<EventField, 3> slots{};

  std::span<const EventField> fields() const {
    return {slots.data(), field_count};
  }
  bool Has(EventTrait trait) const { return (traits & trait) != 0; }
};

inline constexpr size_t kEventKindCount =
    static_cast<size_t>(TraceEventKind::kTag) + 1;

namespace schema {
constexpr EventField Field(FieldRole role, uint32_t TraceEvent::*slot) {
  return {role, slot};
}
inline constexpr EventField kName{FieldRole::kName, nullptr};
inline constexpr EventField kNodeA = Field(FieldRole::kNode, &TraceEvent::a);
inline constexpr EventField kNodeB = Field(FieldRole::kNode, &TraceEvent::b);
inline constexpr EventField kParent =
    Field(FieldRole::kNode, &TraceEvent::parent);
inline constexpr EventField kSchedule =
    Field(FieldRole::kSchedule, &TraceEvent::schedule);
inline constexpr EventField kClassA = Field(FieldRole::kClass, &TraceEvent::a);
inline constexpr EventField kClassB = Field(FieldRole::kClass, &TraceEvent::b);
}  // namespace schema

// clang-format off
inline constexpr EventLayout kEventLayouts[kEventKindCount] = {
  // kind, record name, creates, traits, fields in text and binary order
  {TraceEventKind::kSchedule, "schedule", FieldRole::kSchedule, kBroadcast,
   {schema::kName}},
  {TraceEventKind::kRoot, "root", FieldRole::kNode, 0,
   {schema::kSchedule, schema::kName}},
  {TraceEventKind::kSub, "sub", FieldRole::kNode, 0,
   {schema::kParent, schema::kSchedule, schema::kName}},
  {TraceEventKind::kLeaf, "leaf", FieldRole::kNode, 0,
   {schema::kParent, schema::kName}},
  {TraceEventKind::kConflict, "conflict", std::nullopt, 0,
   {schema::kNodeA, schema::kNodeB}},
  {TraceEventKind::kWeakOutput, "weak_out", std::nullopt, 0,
   {schema::kNodeA, schema::kNodeB}},
  {TraceEventKind::kStrongOutput, "strong_out", std::nullopt, 0,
   {schema::kNodeA, schema::kNodeB}},
  {TraceEventKind::kWeakInput, "weak_in", std::nullopt, 0,
   {schema::kSchedule, schema::kNodeA, schema::kNodeB}},
  {TraceEventKind::kStrongInput, "strong_in", std::nullopt, 0,
   {schema::kSchedule, schema::kNodeA, schema::kNodeB}},
  {TraceEventKind::kIntraWeak, "intra_weak", std::nullopt, 0,
   {schema::kParent, schema::kNodeA, schema::kNodeB}},
  {TraceEventKind::kIntraStrong, "intra_strong", std::nullopt, 0,
   {schema::kParent, schema::kNodeA, schema::kNodeB}},
  {TraceEventKind::kCommit, "commit", std::nullopt, kCommitMarker,
   {schema::kParent}},
  {TraceEventKind::kCommitThrough, "commit_through", std::nullopt,
   kCommitMarker, {schema::Field(FieldRole::kCount, &TraceEvent::a)}},
  {TraceEventKind::kAdtDecl, "adt", FieldRole::kAdt, kBroadcast,
   {schema::kName}},
  {TraceEventKind::kAdtOp, "adtop", FieldRole::kClass, kBroadcast,
   {schema::Field(FieldRole::kAdt, &TraceEvent::a), schema::kName}},
  {TraceEventKind::kCommute, "commute", std::nullopt, kBroadcast,
   {schema::kClassA, schema::kClassB}},
  {TraceEventKind::kClash, "clash", std::nullopt, kBroadcast,
   {schema::kClassA, schema::kClassB}},
  {TraceEventKind::kTag, "tag", std::nullopt, 0,
   {schema::kParent, schema::kClassA,
    schema::Field(FieldRole::kInstance, &TraceEvent::b)}},
};
// clang-format on

constexpr bool LayoutsFollowKindOrder() {
  for (size_t i = 0; i < kEventKindCount; ++i) {
    if (static_cast<size_t>(kEventLayouts[i].kind) != i) return false;
  }
  return true;
}
static_assert(LayoutsFollowKindOrder(),
              "kEventLayouts rows must follow TraceEventKind order");

/// The layout of `kind`, which must be a declared TraceEventKind.
inline const EventLayout& LayoutOf(TraceEventKind kind) {
  return kEventLayouts[static_cast<size_t>(kind)];
}

/// The layout whose record name is `name`; null when none is.
const EventLayout* FindLayout(std::string_view name);

/// Calls `fn(role, ref)` for every field of `event` except its name, in
/// layout order; `ref` is a uint32_t& when `event` is mutable, so a walk
/// can renumber in place.
template <typename Event, typename Fn>
void ForEachRef(Event& event, Fn&& fn) {
  for (const EventField& field : LayoutOf(event.kind).fields()) {
    if (field.role != FieldRole::kName) fn(field.role, event.*field.slot);
  }
}

/// Calls `fn(ref)` for every field of `event` with role `role`, which
/// must not be kName.
template <typename Event, typename Fn>
void ForEachRef(Event& event, FieldRole role, Fn&& fn) {
  for (const EventField& field : LayoutOf(event.kind).fields()) {
    if (field.role == role) fn(event.*field.slot);
  }
}

/// The kind's node, schedule, ADT or class creation, if it is one.
inline std::optional<FieldRole> CreatedSpace(TraceEventKind kind) {
  return LayoutOf(kind).creates;
}

inline bool CreatesNode(TraceEventKind kind) {
  return CreatedSpace(kind) == FieldRole::kNode;
}

/// True for the semantic-commutativity layer: ADT declarations, classes,
/// commute/clash entries and tags (every kind that creates or names an
/// ADT or an operation class).
bool IsAdtLayerEvent(TraceEventKind kind);

}  // namespace comptx::workload

#endif  // COMPTX_WORKLOAD_EVENT_SCHEMA_H_
