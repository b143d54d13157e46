#include "testing/events.h"

#include <array>
#include <optional>
#include <utility>

#include "util/string_util.h"
#include "workload/event_schema.h"

namespace comptx::testing {

using workload::FieldRole;
using workload::TraceEvent;

StatusOr<std::vector<TraceEvent>> SystemToEvents(const CompositeSystem& cs) {
  COMPTX_ASSIGN_OR_RETURN(std::string text, workload::SaveTrace(cs));
  return workload::ParseTraceEvents(text);
}

StatusOr<CompositeSystem> BuildSystem(const std::vector<TraceEvent>& events) {
  CompositeSystem cs;
  for (size_t i = 0; i < events.size(); ++i) {
    Status status = workload::ApplyTraceEvent(cs, events[i]);
    if (!status.ok()) {
      return Status::InvalidArgument(
          StrCat("event ", i + 1, " (", workload::FormatTraceEvent(events[i]),
                 "): ", status.message()));
    }
  }
  return cs;
}

bool IsCreationEvent(const TraceEvent& event) {
  const std::optional<FieldRole> space = workload::CreatedSpace(event.kind);
  return space == FieldRole::kNode || space == FieldRole::kSchedule;
}

std::vector<TraceEvent> FilterEvents(const std::vector<TraceEvent>& events,
                                     const std::vector<bool>& keep) {
  // Per index space, creation-order maps from old indices to the dense
  // new numbering; kInvalidIndex marks a dropped (or never-created)
  // entity.
  std::array<std::vector<uint32_t>, workload::kIndexSpaceCount> maps;
  std::array<uint32_t, workload::kIndexSpaceCount> next{};
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    bool kept = i < keep.size() ? static_cast<bool>(keep[i]) : true;
    TraceEvent r = events[i];
    workload::ForEachRef(r, [&](FieldRole role, uint32_t& ref) {
      if (role == FieldRole::kCount) {
        // A commit_through watermark counts roots by creation order,
        // which the dense renumbering changes; dropping the record keeps
        // the filtered trace self-consistent (commit markers never
        // affect verdicts).
        kept = false;
      } else if (workload::IsIndexSpace(role)) {
        const std::vector<uint32_t>& map = maps[static_cast<size_t>(role)];
        if (ref < map.size() && map[ref] != kInvalidIndex) {
          ref = map[ref];
        } else {
          kept = false;
        }
      }
    });
    if (const std::optional<FieldRole> space = workload::CreatedSpace(r.kind)) {
      const size_t s = static_cast<size_t>(*space);
      maps[s].push_back(kept ? next[s]++ : kInvalidIndex);
    }
    if (kept) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace comptx::testing
