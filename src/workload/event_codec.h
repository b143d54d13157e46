#ifndef COMPTX_WORKLOAD_EVENT_CODEC_H_
#define COMPTX_WORKLOAD_EVENT_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"
#include "workload/trace.h"

namespace comptx::workload {

/// The byte codec every comptx binary format shares: v2 wire frames
/// (DESIGN.md §12), WAL records (§11.1) and snapshot images (§11.3).
/// Two layers:
///
///   - little-endian fixed-width integers, for frame headers and record
///     fields whose width is part of the format;
///   - LEB128 varints and the packed event encoding built on them, the
///     only binary form of a TraceEvent: a kind byte followed by the
///     kind's fields, node/schedule references as varints and names as
///     varint-length-prefixed bytes.  Unused fields are not stored, so a
///     single-reference event costs two bytes.
///
/// Decoders read from a byte view, so a frame parser or a WAL scan
/// decodes in place without copying the payload first.

void PutU8(std::string& out, uint8_t value);
void PutU16(std::string& out, uint16_t value);
void PutU32(std::string& out, uint32_t value);
void PutU64(std::string& out, uint64_t value);

/// Bounds-checked reader of fixed-width fields over a byte view.  A Get*
/// that would run past the end returns zero (or an empty string) and
/// clears `ok`, so a decoder checks `ok` once after a group of reads
/// rather than after each one.
struct ByteCursor {
  std::string_view data;
  size_t pos = 0;
  bool ok = true;

  size_t remaining() const { return data.size() - pos; }

  uint8_t GetU8() { return static_cast<uint8_t>(GetLittleEndian(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(GetLittleEndian(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLittleEndian(4)); }
  uint64_t GetU64() { return GetLittleEndian(8); }
  std::string GetBytes(size_t n);

 private:
  uint64_t GetLittleEndian(size_t width);
};

/// LEB128.  AppendVarint writes `value`; ReadVarint advances `pos` and
/// fails on truncation or a >64-bit encoding.
void AppendVarint(std::string& out, uint64_t value);
Status ReadVarint(std::string_view data, size_t& pos, uint64_t& value);

/// One trace event as kind byte + the kind's fields.  ReadEventBinary
/// advances `pos` and rejects an unknown kind, a truncated field and a
/// reference wider than 32 bits.  Every packed event takes at least
/// kMinEventBinaryBytes, so a decoder can reject an event count that the
/// remaining bytes cannot hold before it sizes anything for it.
inline constexpr size_t kMinEventBinaryBytes = 2;
void AppendEventBinary(std::string& out, const TraceEvent& event);
Status ReadEventBinary(std::string_view data, size_t& pos, TraceEvent& event);

}  // namespace comptx::workload

#endif  // COMPTX_WORKLOAD_EVENT_CODEC_H_
