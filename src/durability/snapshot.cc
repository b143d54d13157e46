#include "durability/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "durability/wal.h"

namespace comptx::durability {

namespace {

// Snapshot payloads reuse the WAL's little-endian primitive layout; the
// codec here is deliberately tiny and local rather than a shared
// "serialization framework".

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

struct Cursor {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  uint8_t GetU8() {
    if (pos + 1 > size) {
      ok = false;
      return 0;
    }
    return data[pos++];
  }
  uint32_t GetU32() {
    if (pos + 4 > size) {
      ok = false;
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  uint64_t GetU64() {
    if (pos + 8 > size) {
      ok = false;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
  std::string GetBytes(size_t n) {
    if (pos + n > size || n > size) {
      ok = false;
      return std::string();
    }
    std::string v(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return v;
  }
};

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

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
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  Cursor header{data + sizeof(kSnapshotMagic), 8};
  const uint32_t len = header.GetU32();
  const uint32_t crc = header.GetU32();
  const size_t payload_off = sizeof(kSnapshotMagic) + 8;
  if (len != bytes.size() - payload_off) {
    return Status::OutOfRange("snapshot length mismatch (truncated file?)");
  }
  if (Crc32(data + payload_off, len) != crc) {
    return Status::OutOfRange("snapshot crc mismatch");
  }

  const Status undecodable = Status::OutOfRange("snapshot payload undecodable");
  Cursor cur{data + payload_off, len};
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
  const std::string bytes = EncodeSnapshot(snapshot);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);
  size_t left = bytes.size();
  const char* p = bytes.data();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return ErrnoStatus("write", tmp);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return ErrnoStatus("fsync", tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return ErrnoStatus("rename", tmp);
  }
  std::string dir = ".";
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash);
  if (dir.empty()) dir = "/";
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return ErrnoStatus("open dir", dir);
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  if (rc != 0) return ErrnoStatus("fsync dir", dir);
  return Status::OK();
}

StatusOr<Snapshot> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return DecodeSnapshot(buf.str());
}

}  // namespace comptx::durability
