#ifndef COMPTX_TESTS_WAL_W1_H_
#define COMPTX_TESTS_WAL_W1_H_

// comptxw1 WAL bytes for the old-data-dir tests.  Servers before the
// shared event codec wrote this format; the reader still accepts it and
// recovery rewrites it once as comptxw2.  The two formats differ only in
// APPEND bodies: w1 stores a u32 event count, then per event a kind byte,
// the schedule/parent/a/b fields as u32 and a u32-length name.

#include <cstdint>
#include <string>
#include <vector>

#include "durability/wal.h"
#include "workload/event_codec.h"

namespace comptx::testing {

/// A comptxw1 WAL as a comptxw1 writer produced it: OPEN
/// "epoch_interval=8", then an APPEND at seq 1 of `schedule S`,
/// `root 0 T`, `leaf 0 x` and `commit 0`.
inline constexpr char kCapturedW1WalHex[] =
    "636f6d70747877311d00000042e1bb990100000000000000001000000065706f"
    "63685f696e74657276616c3d3864000000492c74ee0201000000000000000400"
    "000000ffffffffffffffffffffffffffffffff01000000530100000000ffffff"
    "ffffffffffffffffff010000005403ffffffff00000000ffffffffffffffff01"
    "000000780bffffffff00000000ffffffffffffffff00000000";

inline std::string HexBytes(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Packs `records` as a whole comptxw1 file.
inline std::string W1WalBytes(
    const std::vector<durability::WalRecord>& records) {
  std::string out(durability::kWalMagicV1, sizeof(durability::kWalMagicV1));
  for (const durability::WalRecord& record : records) {
    if (record.type != durability::WalRecordType::kAppend) {
      out += durability::EncodeWalRecord(record);
      continue;
    }
    std::string payload;
    workload::PutU8(payload, static_cast<uint8_t>(record.type));
    workload::PutU64(payload, record.seq);
    workload::PutU32(payload, static_cast<uint32_t>(record.events.size()));
    for (const workload::TraceEvent& event : record.events) {
      workload::PutU8(payload, static_cast<uint8_t>(event.kind));
      workload::PutU32(payload, event.schedule);
      workload::PutU32(payload, event.parent);
      workload::PutU32(payload, event.a);
      workload::PutU32(payload, event.b);
      workload::PutU32(payload, static_cast<uint32_t>(event.name.size()));
      payload += event.name;
    }
    workload::PutU32(out, static_cast<uint32_t>(payload.size()));
    workload::PutU32(out, durability::Crc32(payload.data(), payload.size()));
    out += payload;
  }
  return out;
}

}  // namespace comptx::testing

#endif  // COMPTX_TESTS_WAL_W1_H_
