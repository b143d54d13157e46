#include "workload/event_codec.h"

#include "util/string_util.h"

namespace comptx::workload {

namespace {

void PutLittleEndian(std::string& out, uint64_t value, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

constexpr uint8_t kMaxEventKind = static_cast<uint8_t>(TraceEventKind::kTag);

void AppendString(std::string& out, const std::string& value) {
  AppendVarint(out, value.size());
  out += value;
}

Status ReadString(std::string_view data, size_t& pos, std::string& value) {
  uint64_t size = 0;
  COMPTX_RETURN_IF_ERROR(ReadVarint(data, pos, size));
  if (size > data.size() - pos) {
    return Status::InvalidArgument("truncated string");
  }
  value.assign(data.substr(pos, static_cast<size_t>(size)));
  pos += static_cast<size_t>(size);
  return Status::OK();
}

Status ReadIndex(std::string_view data, size_t& pos, uint32_t& value) {
  uint64_t parsed = 0;
  COMPTX_RETURN_IF_ERROR(ReadVarint(data, pos, parsed));
  if (parsed > UINT32_MAX) {
    return Status::InvalidArgument("index exceeds 32 bits");
  }
  value = static_cast<uint32_t>(parsed);
  return Status::OK();
}

}  // namespace

// ---- fixed-width layer ---------------------------------------------------

void PutU8(std::string& out, uint8_t value) { PutLittleEndian(out, value, 1); }
void PutU16(std::string& out, uint16_t value) {
  PutLittleEndian(out, value, 2);
}
void PutU32(std::string& out, uint32_t value) {
  PutLittleEndian(out, value, 4);
}
void PutU64(std::string& out, uint64_t value) {
  PutLittleEndian(out, value, 8);
}

uint64_t ByteCursor::GetLittleEndian(size_t width) {
  if (width > remaining()) {
    ok = false;
    return 0;
  }
  uint64_t value = 0;
  for (size_t i = 0; i < width; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(data[pos + i]))
             << (8 * i);
  }
  pos += width;
  return value;
}

std::string ByteCursor::GetBytes(size_t n) {
  if (n > remaining()) {
    ok = false;
    return std::string();
  }
  std::string value(data.substr(pos, n));
  pos += n;
  return value;
}

// ---- varint + packed-event layer ----------------------------------------

void AppendVarint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

Status ReadVarint(std::string_view data, size_t& pos, uint64_t& value) {
  value = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= data.size()) {
      return Status::InvalidArgument("truncated varint");
    }
    const uint8_t byte = static_cast<uint8_t>(data[pos++]);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (shift == 63 && (byte & 0x7e) != 0) break;  // overflowed 64 bits
      return Status::OK();
    }
  }
  return Status::InvalidArgument("varint exceeds 64 bits");
}

void AppendEventBinary(std::string& out, const TraceEvent& event) {
  out.push_back(static_cast<char>(event.kind));
  // Field presence mirrors the text grammar (workload/trace.h): unused
  // fields are not shipped, so a single-reference event costs a kind
  // byte plus one or two varints.
  switch (event.kind) {
    case TraceEventKind::kSchedule:
      AppendString(out, event.name);
      break;
    case TraceEventKind::kRoot:
      AppendVarint(out, event.schedule);
      AppendString(out, event.name);
      break;
    case TraceEventKind::kSub:
      AppendVarint(out, event.parent);
      AppendVarint(out, event.schedule);
      AppendString(out, event.name);
      break;
    case TraceEventKind::kLeaf:
      AppendVarint(out, event.parent);
      AppendString(out, event.name);
      break;
    case TraceEventKind::kConflict:
    case TraceEventKind::kWeakOutput:
    case TraceEventKind::kStrongOutput:
      AppendVarint(out, event.a);
      AppendVarint(out, event.b);
      break;
    case TraceEventKind::kWeakInput:
    case TraceEventKind::kStrongInput:
      AppendVarint(out, event.schedule);
      AppendVarint(out, event.a);
      AppendVarint(out, event.b);
      break;
    case TraceEventKind::kIntraWeak:
    case TraceEventKind::kIntraStrong:
      AppendVarint(out, event.parent);
      AppendVarint(out, event.a);
      AppendVarint(out, event.b);
      break;
    case TraceEventKind::kCommit:
      AppendVarint(out, event.parent);
      break;
    case TraceEventKind::kCommitThrough:
      AppendVarint(out, event.a);
      break;
    case TraceEventKind::kAdtDecl:
      AppendString(out, event.name);
      break;
    case TraceEventKind::kAdtOp:
      AppendVarint(out, event.a);
      AppendString(out, event.name);
      break;
    case TraceEventKind::kCommute:
    case TraceEventKind::kClash:
      AppendVarint(out, event.a);
      AppendVarint(out, event.b);
      break;
    case TraceEventKind::kTag:
      AppendVarint(out, event.parent);
      AppendVarint(out, event.a);
      AppendVarint(out, event.b);
      break;
  }
}

Status ReadEventBinary(std::string_view data, size_t& pos, TraceEvent& event) {
  if (pos >= data.size()) return Status::InvalidArgument("truncated event");
  const uint8_t kind = static_cast<uint8_t>(data[pos++]);
  if (kind > kMaxEventKind) {
    return Status::InvalidArgument(StrCat("unknown event kind ", kind));
  }
  event = TraceEvent{};
  event.kind = static_cast<TraceEventKind>(kind);
  switch (event.kind) {
    case TraceEventKind::kSchedule:
      return ReadString(data, pos, event.name);
    case TraceEventKind::kRoot:
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.schedule));
      return ReadString(data, pos, event.name);
    case TraceEventKind::kSub:
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.parent));
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.schedule));
      return ReadString(data, pos, event.name);
    case TraceEventKind::kLeaf:
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.parent));
      return ReadString(data, pos, event.name);
    case TraceEventKind::kConflict:
    case TraceEventKind::kWeakOutput:
    case TraceEventKind::kStrongOutput:
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.a));
      return ReadIndex(data, pos, event.b);
    case TraceEventKind::kWeakInput:
    case TraceEventKind::kStrongInput:
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.schedule));
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.a));
      return ReadIndex(data, pos, event.b);
    case TraceEventKind::kIntraWeak:
    case TraceEventKind::kIntraStrong:
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.parent));
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.a));
      return ReadIndex(data, pos, event.b);
    case TraceEventKind::kCommit:
      return ReadIndex(data, pos, event.parent);
    case TraceEventKind::kCommitThrough:
      return ReadIndex(data, pos, event.a);
    case TraceEventKind::kAdtDecl:
      return ReadString(data, pos, event.name);
    case TraceEventKind::kAdtOp:
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.a));
      return ReadString(data, pos, event.name);
    case TraceEventKind::kCommute:
    case TraceEventKind::kClash:
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.a));
      return ReadIndex(data, pos, event.b);
    case TraceEventKind::kTag:
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.parent));
      COMPTX_RETURN_IF_ERROR(ReadIndex(data, pos, event.a));
      return ReadIndex(data, pos, event.b);
  }
  return Status::InvalidArgument("unreachable event kind");
}

}  // namespace comptx::workload
