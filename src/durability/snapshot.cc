#include "durability/snapshot.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "durability/wal.h"
#include "workload/event_codec.h"

namespace comptx::durability {

namespace {

using workload::ByteCursor;
using workload::PutU32;
using workload::PutU64;
using workload::PutU8;

}  // namespace

std::string EncodeSnapshot(const Snapshot& snapshot) {
  const online::CertifierState& state = snapshot.state;
  std::string payload;
  PutU64(payload, snapshot.session_id);
  PutU64(payload, snapshot.event_seq);
  PutU64(payload, state.accepted);
  PutU64(payload, state.rejected);
  PutU8(payload, state.certifiable ? 1 : 0);
  PutU32(payload, static_cast<uint32_t>(snapshot.options.size()));
  payload.append(snapshot.options);
  PutU32(payload, static_cast<uint32_t>(state.sealed.size()));
  for (const uint32_t root : state.sealed) PutU32(payload, root);
  PutU32(payload, state.node_count);
  PutU64(payload, state.root_count);
  PutU64(payload, state.commit_watermark);
  PutU32(payload, static_cast<uint32_t>(state.live_ids.size()));
  for (const uint32_t id : state.live_ids) PutU32(payload, id);
  PutU32(payload, static_cast<uint32_t>(state.live_root_ordinals.size()));
  for (const uint32_t ordinal : state.live_root_ordinals) {
    PutU32(payload, ordinal);
  }
  PutU32(payload, static_cast<uint32_t>(state.invokes.size()));
  for (const auto& [caller, callee] : state.invokes) {
    PutU32(payload, caller);
    PutU32(payload, callee);
  }
  PutU64(payload, state.trace.size());
  payload.append(state.trace);

  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

StatusOr<Snapshot> DecodeSnapshot(const std::string& bytes) {
  const bool v2 =
      bytes.size() >= sizeof(kSnapshotMagic) &&
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) == 0;
  const bool v1 = bytes.size() >= sizeof(kSnapshotMagicV1) &&
                  std::memcmp(bytes.data(), kSnapshotMagicV1,
                              sizeof(kSnapshotMagicV1)) == 0;
  if (bytes.size() < sizeof(kSnapshotMagic) + 8 || (!v1 && !v2)) {
    return Status::InvalidArgument("not a comptx snapshot (bad magic)");
  }
  ByteCursor header{std::string_view(bytes).substr(sizeof(kSnapshotMagic), 8)};
  const uint32_t len = header.GetU32();
  const uint32_t crc = header.GetU32();
  const size_t payload_off = sizeof(kSnapshotMagic) + 8;
  if (len != bytes.size() - payload_off) {
    return Status::OutOfRange("snapshot length mismatch (truncated file?)");
  }
  if (Crc32(bytes.data() + payload_off, len) != crc) {
    return Status::OutOfRange("snapshot crc mismatch");
  }

  const Status undecodable = Status::OutOfRange("snapshot payload undecodable");
  ByteCursor cur{std::string_view(bytes).substr(payload_off)};
  // Reads a u32 count followed by that many u32 values.
  const auto get_u32_list = [&](std::vector<uint32_t>& out) {
    const uint32_t count = cur.GetU32();
    if (!cur.ok || count > len / 4) {
      cur.ok = false;
      return;
    }
    out.reserve(count);
    for (uint32_t i = 0; i < count; ++i) out.push_back(cur.GetU32());
  };
  Snapshot snapshot;
  online::CertifierState& state = snapshot.state;
  snapshot.session_id = cur.GetU64();
  snapshot.event_seq = cur.GetU64();
  state.accepted = cur.GetU64();
  state.rejected = cur.GetU64();
  state.certifiable = cur.GetU8() != 0;
  const uint32_t options_len = cur.GetU32();
  snapshot.options = cur.GetBytes(options_len);
  get_u32_list(state.sealed);
  if (v2) {
    // comptxs1 stops here: its trace is the whole history, numbered by
    // id, so the window fields keep their empty defaults.
    state.node_count = cur.GetU32();
    state.root_count = cur.GetU64();
    state.commit_watermark = cur.GetU64();
    get_u32_list(state.live_ids);
    get_u32_list(state.live_root_ordinals);
    const uint32_t edges = cur.GetU32();
    if (!cur.ok || edges > len / 8) return undecodable;
    for (uint32_t i = 0; i < edges; ++i) {
      const uint32_t caller = cur.GetU32();
      state.invokes.emplace_back(caller, cur.GetU32());
    }
  }
  const uint64_t trace_len = cur.GetU64();
  if (!cur.ok || trace_len > len) return undecodable;
  state.trace = cur.GetBytes(trace_len);
  if (!cur.ok || cur.pos != len) return undecodable;
  return snapshot;
}

Status WriteSnapshotFile(const std::string& path, const Snapshot& snapshot) {
  return PublishFile(path, EncodeSnapshot(snapshot), /*keep_open=*/false)
      .status();
}

StatusOr<Snapshot> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return DecodeSnapshot(buf.str());
}

}  // namespace comptx::durability
