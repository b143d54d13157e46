#include "workload/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <sstream>
#include <tuple>

#include "util/string_util.h"
#include "workload/event_schema.h"

namespace comptx::workload {

namespace {

constexpr char kHeader[] = "comptx-trace v1";

Status CheckName(const std::string& name) {
  for (char c : name) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      return Status::InvalidArgument(
          StrCat("name contains whitespace: '", name, "'"));
    }
  }
  if (name.empty()) return Status::InvalidArgument("empty name");
  return Status::OK();
}

/// Parses one non-empty trace line into an event; "end" yields nullopt.
/// Each field is one blank-separated token; a numeric field must be an
/// unsigned decimal that fits 32 bits (ParseUint64: no sign, no prefix),
/// and a token after the last field makes the record malformed.
/// `fields` is scratch, reused across lines so a long trace does not
/// build a stream per line.
StatusOr<std::optional<TraceEvent>> ParseLine(std::istringstream& fields,
                                              const std::string& line) {
  fields.clear();
  fields.str(line);
  std::string kind;
  fields >> kind;
  if (kind == "end") return std::optional<TraceEvent>();
  const EventLayout* layout = FindLayout(kind);
  if (layout == nullptr) {
    return Status::InvalidArgument(StrCat("unknown record kind '", kind, "'"));
  }
  const auto malformed = [&] {
    return Status::InvalidArgument(StrCat("malformed ", kind, " record"));
  };
  TraceEvent e;
  e.kind = layout->kind;
  std::string token;
  for (const EventField& field : layout->fields()) {
    if (!(fields >> token)) return malformed();
    if (field.role == FieldRole::kName) {
      e.name = std::move(token);
      continue;
    }
    const StatusOr<uint64_t> value = ParseUint64(kind, token);
    if (!value.ok() || *value > UINT32_MAX) return malformed();
    e.*field.slot = static_cast<uint32_t>(*value);
  }
  if (fields >> token) return malformed();
  return std::optional<TraceEvent>(std::move(e));
}

/// Appends `e` as one trace line, without the newline.
void AppendTraceLine(std::string& out, const TraceEvent& e) {
  const EventLayout& layout = LayoutOf(e.kind);
  out += layout.name;
  for (const EventField& field : layout.fields()) {
    out += ' ';
    if (field.role == FieldRole::kName) {
      out += e.name;
    } else {
      char digits[16];
      out.append(digits, std::to_chars(digits, digits + sizeof(digits),
                                       e.*field.slot).ptr);
    }
  }
}

}  // namespace

const char* TraceEventKindToString(TraceEventKind kind) {
  return static_cast<size_t>(kind) < kEventKindCount ? LayoutOf(kind).name
                                                     : "unknown";
}

std::string FormatTraceEvent(const TraceEvent& e) {
  std::string out;
  AppendTraceLine(out, e);
  return out;
}

StatusOr<TraceEvent> ParseTraceEventLine(const std::string& line) {
  std::istringstream fields;
  auto parsed = ParseLine(fields, line);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->has_value()) {
    return Status::InvalidArgument("'end' is not an event");
  }
  return std::move(**parsed);
}

StatusOr<std::vector<TraceEvent>> ParseTraceEvents(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument("missing comptx-trace v1 header");
  }
  size_t line_number = 1;
  std::vector<TraceEvent> events;
  bool saw_end = false;
  std::istringstream fields;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto parsed = ParseLine(fields, line);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          StrCat("trace line ", line_number, ": ", parsed.status().message()));
    }
    if (!parsed->has_value()) {
      saw_end = true;
      break;
    }
    events.push_back(std::move(**parsed));
  }
  if (!saw_end) return Status::InvalidArgument("trace missing 'end' record");
  return events;
}

Status ApplyTraceEvent(CompositeSystem& cs, const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kSchedule:
      cs.AddSchedule(e.name);
      return Status::OK();
    case TraceEventKind::kRoot:
      return cs.AddRootTransaction(ScheduleId(e.schedule), e.name).status();
    case TraceEventKind::kSub:
      return cs
          .AddSubtransaction(NodeId(e.parent), ScheduleId(e.schedule), e.name)
          .status();
    case TraceEventKind::kLeaf:
      return cs.AddLeaf(NodeId(e.parent), e.name).status();
    case TraceEventKind::kConflict:
      return cs.AddConflict(NodeId(e.a), NodeId(e.b));
    case TraceEventKind::kWeakOutput:
      return cs.AddWeakOutput(NodeId(e.a), NodeId(e.b));
    case TraceEventKind::kStrongOutput:
      return cs.AddStrongOutput(NodeId(e.a), NodeId(e.b));
    case TraceEventKind::kWeakInput:
      return cs.AddWeakInput(ScheduleId(e.schedule), NodeId(e.a), NodeId(e.b));
    case TraceEventKind::kStrongInput:
      return cs.AddStrongInput(ScheduleId(e.schedule), NodeId(e.a),
                               NodeId(e.b));
    case TraceEventKind::kIntraWeak:
      return cs.AddIntraWeak(NodeId(e.parent), NodeId(e.a), NodeId(e.b));
    case TraceEventKind::kIntraStrong:
      return cs.AddIntraStrong(NodeId(e.parent), NodeId(e.a), NodeId(e.b));
    case TraceEventKind::kCommit:
    case TraceEventKind::kCommitThrough:
      return Status::OK();
    case TraceEventKind::kAdtDecl:
      return cs.DeclareAdt(e.name).status();
    case TraceEventKind::kAdtOp:
      return cs.DeclareAdtOp(e.a, e.name).status();
    case TraceEventKind::kCommute:
      return cs.DeclareCommute(e.a, e.b);
    case TraceEventKind::kClash:
      return cs.DeclareClash(e.a, e.b);
    case TraceEventKind::kTag:
      return cs.TagOperation(NodeId(e.parent), e.a, e.b);
  }
  return Status::InvalidArgument("unknown event kind");
}

StatusOr<std::string> SaveTrace(const CompositeSystem& cs) {
  std::string out = StrCat(kHeader, "\n");
  // One scratch event per line; AppendTraceLine reads only the fields of
  // the kind's layout, so stale values in the others are never written.
  TraceEvent e;
  const auto emit = [&](TraceEventKind kind) {
    e.kind = kind;
    AppendTraceLine(out, e);
    out += '\n';
  };
  const auto emit_named = [&](TraceEventKind kind,
                              const std::string& name) -> Status {
    COMPTX_RETURN_IF_ERROR(CheckName(name));
    e.name = name;
    emit(kind);
    return Status::OK();
  };
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    COMPTX_RETURN_IF_ERROR(emit_named(TraceEventKind::kSchedule,
                                      cs.schedule(ScheduleId(s)).name));
  }
  if (const CommutativitySpec* spec = cs.spec()) {
    for (uint32_t a = 0; a < spec->AdtCount(); ++a) {
      COMPTX_RETURN_IF_ERROR(
          emit_named(TraceEventKind::kAdtDecl, spec->adt(a).name));
    }
    for (uint32_t c = 0; c < spec->ClassCount(); ++c) {
      e.a = spec->op_class(c).adt;
      COMPTX_RETURN_IF_ERROR(
          emit_named(TraceEventKind::kAdtOp, spec->op_class(c).name));
    }
    // Deterministic order: entries sorted by packed pair.
    std::vector<std::tuple<uint32_t, uint32_t, CommuteEntry>> entries;
    spec->ForEachEntry([&](uint32_t c1, uint32_t c2, CommuteEntry entry) {
      entries.emplace_back(c1, c2, entry);
    });
    std::sort(entries.begin(), entries.end());
    for (const auto& [c1, c2, entry] : entries) {
      e.a = c1;
      e.b = c2;
      emit(entry == CommuteEntry::kCommutes ? TraceEventKind::kCommute
                                            : TraceEventKind::kClash);
    }
  }
  // Nodes are numbered by rank among the live ids, which is the identity
  // unless the system released some (a windowed online session).
  const std::vector<NodeId> live = cs.LiveNodes();
  const uint32_t first = live.empty() ? 0 : live.front().index();
  std::vector<uint32_t> rank(live.empty() ? 0 : live.back().index() - first + 1,
                             kInvalidIndex);
  for (uint32_t r = 0; r < live.size(); ++r) {
    rank[live[r].index() - first] = r;
  }
  Status dangling = Status::OK();
  const auto num = [&](NodeId id) -> uint32_t {
    const uint32_t v = id.index();
    if (v >= first && v - first < rank.size() &&
        rank[v - first] != kInvalidIndex) {
      return rank[v - first];
    }
    if (dangling.ok()) {
      dangling = Status::Internal(StrCat("pair references released node ", v));
    }
    return kInvalidIndex;
  };
  for (NodeId id : live) {
    const Node& n = cs.node(id);
    e.schedule = n.owner_schedule.index();
    TraceEventKind kind = TraceEventKind::kRoot;
    if (!n.IsRoot()) {
      e.parent = num(n.parent);
      kind = n.IsTransaction() ? TraceEventKind::kSub : TraceEventKind::kLeaf;
    }
    COMPTX_RETURN_IF_ERROR(emit_named(kind, n.name));
  }
  for (NodeId id : live) {
    const Node& n = cs.node(id);
    if (n.sem_class != kInvalidIndex) {
      e.parent = num(id);
      e.a = n.sem_class;
      e.b = n.sem_instance;
      emit(TraceEventKind::kTag);
    }
  }
  const auto emit_pair = [&](TraceEventKind kind) {
    return [&, kind](NodeId a, NodeId b) {
      e.a = num(a);
      e.b = num(b);
      emit(kind);
    };
  };
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    const Schedule& sched = cs.schedule(ScheduleId(s));
    e.schedule = s;
    sched.conflicts.ForEach(emit_pair(TraceEventKind::kConflict));
    sched.weak_output.ForEach(emit_pair(TraceEventKind::kWeakOutput));
    sched.strong_output.ForEach(emit_pair(TraceEventKind::kStrongOutput));
    sched.weak_input.ForEach(emit_pair(TraceEventKind::kWeakInput));
    sched.strong_input.ForEach(emit_pair(TraceEventKind::kStrongInput));
  }
  for (NodeId id : live) {
    const std::vector<NodeId>& ops = cs.node(id).children;
    e.parent = num(id);
    cs.weak_intra().ForEachFrom(ops, emit_pair(TraceEventKind::kIntraWeak));
    cs.strong_intra().ForEachFrom(ops, emit_pair(TraceEventKind::kIntraStrong));
  }
  COMPTX_RETURN_IF_ERROR(dangling);
  out += "end\n";
  return out;
}

StatusOr<CompositeSystem> LoadTrace(const std::string& text) {
  COMPTX_ASSIGN_OR_RETURN(std::vector<TraceEvent> events,
                          ParseTraceEvents(text));
  CompositeSystem cs;
  for (size_t i = 0; i < events.size(); ++i) {
    Status status = ApplyTraceEvent(cs, events[i]);
    if (!status.ok()) {
      return Status::InvalidArgument(
          StrCat("trace event ", i + 1, " (",
                 TraceEventKindToString(events[i].kind), "): ",
                 status.message()));
    }
  }
  return cs;
}

}  // namespace comptx::workload
