#include "workload/event_codec.h"

#include "util/string_util.h"
#include "workload/event_schema.h"

namespace comptx::workload {

namespace {

void PutLittleEndian(std::string& out, uint64_t value, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

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
  // The fields of the kind's layout (workload/event_schema.h), in text
  // order: unused fields are not shipped, so a single-reference event
  // costs a kind byte plus one or two varints.
  for (const EventField& field : LayoutOf(event.kind).fields()) {
    if (field.role == FieldRole::kName) {
      AppendString(out, event.name);
    } else {
      AppendVarint(out, event.*field.slot);
    }
  }
}

Status ReadEventBinary(std::string_view data, size_t& pos, TraceEvent& event) {
  if (pos >= data.size()) return Status::InvalidArgument("truncated event");
  const uint8_t kind = static_cast<uint8_t>(data[pos++]);
  if (kind >= kEventKindCount) {
    return Status::InvalidArgument(StrCat("unknown event kind ", kind));
  }
  event = TraceEvent{};
  event.kind = static_cast<TraceEventKind>(kind);
  for (const EventField& field : LayoutOf(event.kind).fields()) {
    COMPTX_RETURN_IF_ERROR(field.role == FieldRole::kName
                               ? ReadString(data, pos, event.name)
                               : ReadIndex(data, pos, event.*field.slot));
  }
  return Status::OK();
}

}  // namespace comptx::workload
