#include "workload/trace.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <tuple>

#include "util/string_util.h"

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
StatusOr<std::optional<TraceEvent>> ParseLine(const std::string& line) {
  std::istringstream fields(line);
  std::string kind;
  fields >> kind;
  if (kind == "end") return std::optional<TraceEvent>();

  TraceEvent e;
  bool ok = false;
  if (kind == "schedule") {
    e.kind = TraceEventKind::kSchedule;
    ok = static_cast<bool>(fields >> e.name);
  } else if (kind == "root") {
    e.kind = TraceEventKind::kRoot;
    ok = static_cast<bool>(fields >> e.schedule >> e.name);
  } else if (kind == "sub") {
    e.kind = TraceEventKind::kSub;
    ok = static_cast<bool>(fields >> e.parent >> e.schedule >> e.name);
  } else if (kind == "leaf") {
    e.kind = TraceEventKind::kLeaf;
    ok = static_cast<bool>(fields >> e.parent >> e.name);
  } else if (kind == "conflict" || kind == "weak_out" || kind == "strong_out") {
    e.kind = kind == "conflict"   ? TraceEventKind::kConflict
             : kind == "weak_out" ? TraceEventKind::kWeakOutput
                                  : TraceEventKind::kStrongOutput;
    ok = static_cast<bool>(fields >> e.a >> e.b);
  } else if (kind == "weak_in" || kind == "strong_in") {
    e.kind = kind == "weak_in" ? TraceEventKind::kWeakInput
                               : TraceEventKind::kStrongInput;
    ok = static_cast<bool>(fields >> e.schedule >> e.a >> e.b);
  } else if (kind == "intra_weak" || kind == "intra_strong") {
    e.kind = kind == "intra_weak" ? TraceEventKind::kIntraWeak
                                  : TraceEventKind::kIntraStrong;
    ok = static_cast<bool>(fields >> e.parent >> e.a >> e.b);
  } else if (kind == "commit") {
    e.kind = TraceEventKind::kCommit;
    ok = static_cast<bool>(fields >> e.parent);
  } else if (kind == "commit_through") {
    e.kind = TraceEventKind::kCommitThrough;
    ok = static_cast<bool>(fields >> e.a);
  } else if (kind == "adt") {
    e.kind = TraceEventKind::kAdtDecl;
    ok = static_cast<bool>(fields >> e.name);
  } else if (kind == "adtop") {
    e.kind = TraceEventKind::kAdtOp;
    ok = static_cast<bool>(fields >> e.a >> e.name);
  } else if (kind == "commute" || kind == "clash") {
    e.kind = kind == "commute" ? TraceEventKind::kCommute
                               : TraceEventKind::kClash;
    ok = static_cast<bool>(fields >> e.a >> e.b);
  } else if (kind == "tag") {
    e.kind = TraceEventKind::kTag;
    ok = static_cast<bool>(fields >> e.parent >> e.a >> e.b);
  } else {
    return Status::InvalidArgument(StrCat("unknown record kind '", kind, "'"));
  }
  if (!ok) {
    return Status::InvalidArgument(StrCat("malformed ", kind, " record"));
  }
  return std::optional<TraceEvent>(std::move(e));
}

}  // namespace

const char* TraceEventKindToString(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSchedule:
      return "schedule";
    case TraceEventKind::kRoot:
      return "root";
    case TraceEventKind::kSub:
      return "sub";
    case TraceEventKind::kLeaf:
      return "leaf";
    case TraceEventKind::kConflict:
      return "conflict";
    case TraceEventKind::kWeakOutput:
      return "weak_out";
    case TraceEventKind::kStrongOutput:
      return "strong_out";
    case TraceEventKind::kWeakInput:
      return "weak_in";
    case TraceEventKind::kStrongInput:
      return "strong_in";
    case TraceEventKind::kIntraWeak:
      return "intra_weak";
    case TraceEventKind::kIntraStrong:
      return "intra_strong";
    case TraceEventKind::kCommit:
      return "commit";
    case TraceEventKind::kCommitThrough:
      return "commit_through";
    case TraceEventKind::kAdtDecl:
      return "adt";
    case TraceEventKind::kAdtOp:
      return "adtop";
    case TraceEventKind::kCommute:
      return "commute";
    case TraceEventKind::kClash:
      return "clash";
    case TraceEventKind::kTag:
      return "tag";
  }
  return "unknown";
}

std::string FormatTraceEvent(const TraceEvent& e) {
  const char* kind = TraceEventKindToString(e.kind);
  switch (e.kind) {
    case TraceEventKind::kSchedule:
      return StrCat(kind, " ", e.name);
    case TraceEventKind::kRoot:
      return StrCat(kind, " ", e.schedule, " ", e.name);
    case TraceEventKind::kSub:
      return StrCat(kind, " ", e.parent, " ", e.schedule, " ", e.name);
    case TraceEventKind::kLeaf:
      return StrCat(kind, " ", e.parent, " ", e.name);
    case TraceEventKind::kConflict:
    case TraceEventKind::kWeakOutput:
    case TraceEventKind::kStrongOutput:
      return StrCat(kind, " ", e.a, " ", e.b);
    case TraceEventKind::kWeakInput:
    case TraceEventKind::kStrongInput:
      return StrCat(kind, " ", e.schedule, " ", e.a, " ", e.b);
    case TraceEventKind::kIntraWeak:
    case TraceEventKind::kIntraStrong:
      return StrCat(kind, " ", e.parent, " ", e.a, " ", e.b);
    case TraceEventKind::kCommit:
      return StrCat(kind, " ", e.parent);
    case TraceEventKind::kCommitThrough:
      return StrCat(kind, " ", e.a);
    case TraceEventKind::kAdtDecl:
      return StrCat(kind, " ", e.name);
    case TraceEventKind::kAdtOp:
      return StrCat(kind, " ", e.a, " ", e.name);
    case TraceEventKind::kCommute:
    case TraceEventKind::kClash:
      return StrCat(kind, " ", e.a, " ", e.b);
    case TraceEventKind::kTag:
      return StrCat(kind, " ", e.parent, " ", e.a, " ", e.b);
  }
  return kind;
}

StatusOr<TraceEvent> ParseTraceEventLine(const std::string& line) {
  auto parsed = ParseLine(line);
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
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto parsed = ParseLine(line);
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
  std::ostringstream out;
  out << kHeader << "\n";
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    const Schedule& sched = cs.schedule(ScheduleId(s));
    COMPTX_RETURN_IF_ERROR(CheckName(sched.name));
    out << "schedule " << sched.name << "\n";
  }
  if (const CommutativitySpec* spec = cs.spec()) {
    for (uint32_t a = 0; a < spec->AdtCount(); ++a) {
      COMPTX_RETURN_IF_ERROR(CheckName(spec->adt(a).name));
      out << "adt " << spec->adt(a).name << "\n";
    }
    for (uint32_t c = 0; c < spec->ClassCount(); ++c) {
      COMPTX_RETURN_IF_ERROR(CheckName(spec->op_class(c).name));
      out << "adtop " << spec->op_class(c).adt << " "
          << spec->op_class(c).name << "\n";
    }
    // Deterministic order: entries sorted by packed pair.
    std::vector<std::tuple<uint32_t, uint32_t, CommuteEntry>> entries;
    spec->ForEachEntry([&](uint32_t c1, uint32_t c2, CommuteEntry e) {
      entries.emplace_back(c1, c2, e);
    });
    std::sort(entries.begin(), entries.end());
    for (const auto& [c1, c2, e] : entries) {
      out << (e == CommuteEntry::kCommutes ? "commute " : "clash ") << c1
          << " " << c2 << "\n";
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
    COMPTX_RETURN_IF_ERROR(CheckName(n.name));
    if (n.IsRoot()) {
      out << "root " << n.owner_schedule.index() << " " << n.name << "\n";
    } else if (n.IsTransaction()) {
      out << "sub " << num(n.parent) << " " << n.owner_schedule.index()
          << " " << n.name << "\n";
    } else {
      out << "leaf " << num(n.parent) << " " << n.name << "\n";
    }
  }
  for (NodeId id : live) {
    const Node& n = cs.node(id);
    if (n.sem_class != kInvalidIndex) {
      out << "tag " << num(id) << " " << n.sem_class << " " << n.sem_instance
          << "\n";
    }
  }
  for (uint32_t s = 0; s < cs.ScheduleCount(); ++s) {
    const Schedule& sched = cs.schedule(ScheduleId(s));
    sched.conflicts.ForEach([&](NodeId a, NodeId b) {
      out << "conflict " << num(a) << " " << num(b) << "\n";
    });
    sched.weak_output.ForEach([&](NodeId a, NodeId b) {
      out << "weak_out " << num(a) << " " << num(b) << "\n";
    });
    sched.strong_output.ForEach([&](NodeId a, NodeId b) {
      out << "strong_out " << num(a) << " " << num(b) << "\n";
    });
    sched.weak_input.ForEach([&](NodeId a, NodeId b) {
      out << "weak_in " << s << " " << num(a) << " " << num(b) << "\n";
    });
    sched.strong_input.ForEach([&](NodeId a, NodeId b) {
      out << "strong_in " << s << " " << num(a) << " " << num(b) << "\n";
    });
  }
  for (NodeId id : live) {
    const Node& n = cs.node(id);
    n.weak_intra.ForEach([&](NodeId a, NodeId b) {
      out << "intra_weak " << num(id) << " " << num(a) << " " << num(b)
          << "\n";
    });
    n.strong_intra.ForEach([&](NodeId a, NodeId b) {
      out << "intra_strong " << num(id) << " " << num(a) << " " << num(b)
          << "\n";
    });
  }
  COMPTX_RETURN_IF_ERROR(dangling);
  out << "end\n";
  return out.str();
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
