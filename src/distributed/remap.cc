#include "distributed/remap.h"

#include "core/ids.h"
#include "util/string_util.h"
#include "workload/event_codec.h"
#include "workload/event_schema.h"

namespace comptx::distributed {

using workload::FieldRole;
using workload::TraceEvent;
using workload::TraceEventKind;

void AppendDeltaEntry(std::string& delta, DeltaKind kind, uint32_t remote,
                      uint32_t local) {
  delta.push_back(static_cast<char>(kind));
  workload::AppendVarint(delta, remote);
  workload::AppendVarint(delta, local);
}

StatusOr<std::vector<DeltaEntry>> ParseDelta(const std::string& delta) {
  std::vector<DeltaEntry> entries;
  size_t pos = 0;
  while (pos < delta.size()) {
    DeltaEntry entry;
    const uint8_t kind = static_cast<uint8_t>(delta[pos++]);
    if (kind > static_cast<uint8_t>(DeltaKind::kRoot)) {
      return Status::InvalidArgument(
          StrCat("unknown mapping delta kind ", kind));
    }
    entry.kind = static_cast<DeltaKind>(kind);
    uint64_t value = 0;
    COMPTX_RETURN_IF_ERROR(workload::ReadVarint(delta, pos, value));
    entry.remote = static_cast<uint32_t>(value);
    COMPTX_RETURN_IF_ERROR(workload::ReadVarint(delta, pos, value));
    entry.local = static_cast<uint32_t>(value);
    entries.push_back(entry);
  }
  return entries;
}

bool SessionRemapper::LookupRefs(const EdgeTables& tables, TraceEvent& event) {
  bool found = true;
  workload::ForEachRef(event, [&](FieldRole role, uint32_t& ref) {
    const std::vector<uint32_t>* map = nullptr;
    switch (role) {
      case FieldRole::kNode:
        map = &tables.nodes;
        break;
      case FieldRole::kSchedule:
        map = &tables.schedules;
        break;
      case FieldRole::kAdt:
        map = &tables.adts;
        break;
      case FieldRole::kClass:
        map = &tables.classes;
        break;
      default:
        // ADT instance ids are global in the source trace, so they pass
        // through untranslated: two children tagging operations with the
        // same instance id really do share that instance, which is how
        // cross-child semantic conflicts stay visible at the parent.
        return;
    }
    ref = ref < map->size() ? (*map)[ref] : kInvalidIndex;
    found = found && ref != kInvalidIndex;
  });
  return found;
}

SessionRemapper::BatchResult SessionRemapper::RemapBatch(
    uint64_t edge, const std::vector<TraceEvent>& events) {
  BatchResult result;
  EdgeTables& tables = TablesFor(edge);
  for (const TraceEvent& event : events) {
    Remapped remapped = RemapOne(tables, result.delta, event);
    switch (remapped.disposition) {
      case Disposition::kForward:
        result.events.push_back(std::move(remapped.event));
        break;
      case Disposition::kDedup:
        ++result.deduped;
        break;
      case Disposition::kReject:
        ++result.rejected;
        break;
    }
  }
  return result;
}

SessionRemapper::Remapped SessionRemapper::RemapOne(EdgeTables& tables,
                                                    std::string& delta,
                                                    const TraceEvent& event) {
  Remapped out;
  out.event = event;
  TraceEvent& e = out.event;

  // One creation event = one new remote index on this edge, whether the
  // entity is new locally (forward) or already known (dedup) — either
  // way the table entry (and its delta record) must exist so later
  // references resolve.  A shadow-rejected creation maps to
  // kInvalidIndex, poisoning only references to that entity.
  const auto reject = [&out] {
    out.disposition = Disposition::kReject;
    return out;
  };
  const auto dedup = [&out] {
    out.disposition = Disposition::kDedup;
    return out;
  };

  switch (event.kind) {
    case TraceEventKind::kSchedule: {
      const uint32_t remote = static_cast<uint32_t>(tables.schedules.size());
      auto it = sched_by_name_.find(event.name);
      if (it != sched_by_name_.end()) {
        tables.schedules.push_back(it->second);
        AppendDeltaEntry(delta, DeltaKind::kSchedule, remote, it->second);
        return dedup();
      }
      const uint32_t local = static_cast<uint32_t>(shadow_.ScheduleCount());
      shadow_.AddSchedule(event.name);
      sched_by_name_.emplace(event.name, local);
      tables.schedules.push_back(local);
      AppendDeltaEntry(delta, DeltaKind::kSchedule, remote, local);
      return out;
    }

    case TraceEventKind::kRoot: {
      const uint32_t remote_node = static_cast<uint32_t>(tables.nodes.size());
      const uint32_t remote_root = static_cast<uint32_t>(tables.roots.size());
      auto it = node_by_name_.find(event.name);
      if (it != node_by_name_.end()) {
        // A refetch of the crash window, or a root broadcast by two
        // children.  Map both the node index and the root ordinal.
        const auto ord = root_ord_by_node_.find(it->second);
        const uint32_t local_ord = ord != root_ord_by_node_.end()
                                       ? ord->second
                                       : kInvalidIndex;
        tables.nodes.push_back(it->second);
        tables.roots.push_back(local_ord);
        AppendDeltaEntry(delta, DeltaKind::kNode, remote_node, it->second);
        AppendDeltaEntry(delta, DeltaKind::kRoot, remote_root, local_ord);
        return dedup();
      }
      const uint32_t local = static_cast<uint32_t>(shadow_.NodeCount());
      uint32_t local_ord = kInvalidIndex;
      if (!LookupRefs(tables, e) ||
          !workload::ApplyTraceEvent(shadow_, e).ok()) {
        tables.nodes.push_back(kInvalidIndex);
        tables.roots.push_back(kInvalidIndex);
        AppendDeltaEntry(delta, DeltaKind::kNode, remote_node, kInvalidIndex);
        AppendDeltaEntry(delta, DeltaKind::kRoot, remote_root, kInvalidIndex);
        return reject();
      }
      local_ord = static_cast<uint32_t>(local_root_ords_.size());
      local_root_ords_.push_back(local);
      root_ord_by_node_.emplace(local, local_ord);
      node_by_name_.emplace(event.name, local);
      tables.nodes.push_back(local);
      tables.roots.push_back(local_ord);
      AppendDeltaEntry(delta, DeltaKind::kNode, remote_node, local);
      AppendDeltaEntry(delta, DeltaKind::kRoot, remote_root, local_ord);
      return out;
    }

    case TraceEventKind::kSub:
    case TraceEventKind::kLeaf: {
      const uint32_t remote_node = static_cast<uint32_t>(tables.nodes.size());
      auto it = node_by_name_.find(event.name);
      if (it != node_by_name_.end()) {
        tables.nodes.push_back(it->second);
        AppendDeltaEntry(delta, DeltaKind::kNode, remote_node, it->second);
        return dedup();
      }
      const uint32_t local = static_cast<uint32_t>(shadow_.NodeCount());
      if (!LookupRefs(tables, e) ||
          !workload::ApplyTraceEvent(shadow_, e).ok()) {
        tables.nodes.push_back(kInvalidIndex);
        AppendDeltaEntry(delta, DeltaKind::kNode, remote_node, kInvalidIndex);
        return reject();
      }
      node_by_name_.emplace(event.name, local);
      tables.nodes.push_back(local);
      AppendDeltaEntry(delta, DeltaKind::kNode, remote_node, local);
      return out;
    }

    case TraceEventKind::kAdtDecl: {
      const uint32_t remote = static_cast<uint32_t>(tables.adts.size());
      if (shadow_.HasSpec()) {
        const uint32_t existing = shadow_.spec()->FindAdt(event.name);
        if (existing != kInvalidIndex) {
          tables.adts.push_back(existing);
          AppendDeltaEntry(delta, DeltaKind::kAdt, remote, existing);
          return dedup();
        }
      }
      auto declared = shadow_.DeclareAdt(event.name);
      if (!declared.ok()) {
        tables.adts.push_back(kInvalidIndex);
        AppendDeltaEntry(delta, DeltaKind::kAdt, remote, kInvalidIndex);
        return reject();
      }
      tables.adts.push_back(*declared);
      AppendDeltaEntry(delta, DeltaKind::kAdt, remote, *declared);
      return out;
    }

    case TraceEventKind::kAdtOp: {
      const uint32_t remote = static_cast<uint32_t>(tables.classes.size());
      const bool found = LookupRefs(tables, e);
      if (found && shadow_.HasSpec()) {
        const uint32_t existing = shadow_.spec()->FindClass(e.a, event.name);
        if (existing != kInvalidIndex) {
          tables.classes.push_back(existing);
          AppendDeltaEntry(delta, DeltaKind::kClass, remote, existing);
          return dedup();
        }
      }
      if (!found) {
        tables.classes.push_back(kInvalidIndex);
        AppendDeltaEntry(delta, DeltaKind::kClass, remote, kInvalidIndex);
        return reject();
      }
      auto declared = shadow_.DeclareAdtOp(e.a, event.name);
      if (!declared.ok()) {
        tables.classes.push_back(kInvalidIndex);
        AppendDeltaEntry(delta, DeltaKind::kClass, remote, kInvalidIndex);
        return reject();
      }
      tables.classes.push_back(*declared);
      AppendDeltaEntry(delta, DeltaKind::kClass, remote, *declared);
      return out;
    }

    case TraceEventKind::kCommute:
    case TraceEventKind::kClash: {
      if (!LookupRefs(tables, e)) return reject();
      const CommuteEntry want = event.kind == TraceEventKind::kCommute
                                    ? CommuteEntry::kCommutes
                                    : CommuteEntry::kConflicts;
      if (shadow_.HasSpec() && shadow_.spec()->Lookup(e.a, e.b) == want) {
        return dedup();  // a broadcast copy of an entry we already hold
      }
      const Status declared = event.kind == TraceEventKind::kCommute
                                  ? shadow_.DeclareCommute(e.a, e.b)
                                  : shadow_.DeclareClash(e.a, e.b);
      if (!declared.ok()) return reject();
      return out;
    }

    case TraceEventKind::kCommit:
    case TraceEventKind::kCommitThrough:
      // Never published on ORDER_STREAM (commits travel through the 2PC
      // path); tolerate and drop.
      return dedup();

    default:
      // A relation event (a conflict, an order or a tag): every
      // reference must resolve on this edge, and the shadow must accept
      // the result.
      if (!LookupRefs(tables, e) ||
          !workload::ApplyTraceEvent(shadow_, e).ok()) {
        return reject();
      }
      return out;
  }
}

Status SessionRemapper::ApplyLocal(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kCommit:
    case TraceEventKind::kCommitThrough:
      return Status::OK();
    case TraceEventKind::kSchedule: {
      const uint32_t local = static_cast<uint32_t>(shadow_.ScheduleCount());
      shadow_.AddSchedule(event.name);
      sched_by_name_.emplace(event.name, local);
      return Status::OK();
    }
    case TraceEventKind::kRoot: {
      const uint32_t local = static_cast<uint32_t>(shadow_.NodeCount());
      COMPTX_RETURN_IF_ERROR(workload::ApplyTraceEvent(shadow_, event));
      const uint32_t ord = static_cast<uint32_t>(local_root_ords_.size());
      local_root_ords_.push_back(local);
      root_ord_by_node_.emplace(local, ord);
      node_by_name_.emplace(event.name, local);
      return Status::OK();
    }
    case TraceEventKind::kSub:
    case TraceEventKind::kLeaf: {
      const uint32_t local = static_cast<uint32_t>(shadow_.NodeCount());
      COMPTX_RETURN_IF_ERROR(workload::ApplyTraceEvent(shadow_, event));
      node_by_name_.emplace(event.name, local);
      return Status::OK();
    }
    default:
      return workload::ApplyTraceEvent(shadow_, event);
  }
}

Status SessionRemapper::FoldDelta(uint64_t edge, const std::string& delta) {
  COMPTX_ASSIGN_OR_RETURN(std::vector<DeltaEntry> entries, ParseDelta(delta));
  EdgeTables& tables = TablesFor(edge);
  for (const DeltaEntry& entry : entries) {
    std::vector<uint32_t>* map = nullptr;
    switch (entry.kind) {
      case DeltaKind::kNode:
        map = &tables.nodes;
        break;
      case DeltaKind::kSchedule:
        map = &tables.schedules;
        break;
      case DeltaKind::kAdt:
        map = &tables.adts;
        break;
      case DeltaKind::kClass:
        map = &tables.classes;
        break;
      case DeltaKind::kRoot:
        map = &tables.roots;
        break;
    }
    if (entry.remote != map->size()) {
      return Status::Internal(
          StrCat("mapping delta for edge ", edge, " is out of order: kind ",
                 static_cast<int>(entry.kind), " remote ", entry.remote,
                 " but table holds ", map->size()));
    }
    map->push_back(entry.local);
  }
  return Status::OK();
}

uint64_t SessionRemapper::ChildWatermark(uint64_t edge, uint64_t k) const {
  auto it = edges_.find(edge);
  if (it == edges_.end()) return 0;
  uint64_t count = 0;
  for (const uint32_t ord : it->second.roots) {
    if (ord != kInvalidIndex && ord < k) ++count;
  }
  return count;
}

}  // namespace comptx::distributed
