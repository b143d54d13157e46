#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "workload/event_codec.h"

namespace comptx::durability {

namespace {

using workload::ByteCursor;
using workload::PutU32;
using workload::PutU64;
using workload::PutU8;

// The smallest w1 APPEND event: a kind byte, four u32 references and a
// u32 name length.  In either format a count claiming more events than
// the rest of the payload could hold is damage, caught before anything
// is allocated for it.
constexpr size_t kMinEventBytesW1 = 21;

// APPEND body in w2: a varint event count, then the packed events.
bool DecodeEvents(ByteCursor& cur, std::vector<workload::TraceEvent>& events,
                  std::string& error) {
  uint64_t count = 0;
  if (!workload::ReadVarint(cur.data, cur.pos, count).ok() ||
      count > cur.remaining() / workload::kMinEventBinaryBytes) {
    error = "implausible event count";
    return false;
  }
  events.resize(static_cast<size_t>(count));
  for (workload::TraceEvent& event : events) {
    if (!workload::ReadEventBinary(cur.data, cur.pos, event).ok()) {
      error = "undecodable event";
      return false;
    }
  }
  return true;
}

// APPEND body in w1, read only while a comptxw1 file is scanned (it is
// rewritten as w2 before anything is appended to it): a u32 event count,
// then per event a kind byte, the four references as u32 and a
// u32-length name.
bool DecodeW1Events(ByteCursor& cur, std::vector<workload::TraceEvent>& events,
                    std::string& error) {
  const uint32_t count = cur.GetU32();
  if (!cur.ok || count > cur.remaining() / kMinEventBytesW1) {
    error = "implausible event count";
    return false;
  }
  events.resize(count);
  for (workload::TraceEvent& event : events) {
    const uint8_t kind = cur.GetU8();
    event.schedule = cur.GetU32();
    event.parent = cur.GetU32();
    event.a = cur.GetU32();
    event.b = cur.GetU32();
    event.name = cur.GetBytes(cur.GetU32());
    if (!cur.ok ||
        kind > static_cast<uint8_t>(workload::TraceEventKind::kTag)) {
      error = "undecodable event";
      return false;
    }
    event.kind = static_cast<workload::TraceEventKind>(kind);
  }
  return true;
}

// Retired record type: a commit_through watermark of its own, [u64 root
// count] after the header (DESIGN.md §11.1).
constexpr uint8_t kLegacyCommitWatermark = 7;

// The checks every payload ends with: nothing read past the end, nothing
// left over.
bool FinishPayload(const ByteCursor& cur, std::string_view payload,
                   std::string& error) {
  if (!cur.ok) {
    error = "short payload";
    return false;
  }
  if (cur.pos != payload.size()) {
    error = "trailing bytes in payload";
    return false;
  }
  return true;
}

bool DecodePayload(std::string_view payload, bool w1, WalRecord& record,
                   std::string& error) {
  ByteCursor cur{payload};
  const uint8_t type = cur.GetU8();
  record.seq = cur.GetU64();
  if (!cur.ok || type < static_cast<uint8_t>(WalRecordType::kOpen) ||
      type > static_cast<uint8_t>(WalRecordType::kStreamCursor)) {
    error = "unknown record type";
    return false;
  }
  if (type == kLegacyCommitWatermark) {
    // A log written before commit_through rode in APPEND records: the
    // record is the APPEND of that one event, at the same seq.
    record.type = WalRecordType::kAppend;
    const uint64_t watermark = cur.GetU64();
    if (watermark > UINT32_MAX) {
      error = "commit watermark exceeds 32 bits";
      return false;
    }
    workload::TraceEvent event;
    event.kind = workload::TraceEventKind::kCommitThrough;
    event.a = static_cast<uint32_t>(watermark);
    record.events.push_back(std::move(event));
    return FinishPayload(cur, payload, error);
  }
  record.type = static_cast<WalRecordType>(type);
  switch (record.type) {
    case WalRecordType::kOpen: {
      record.options = cur.GetBytes(cur.GetU32());
      break;
    }
    case WalRecordType::kAppend: {
      const bool decoded = w1 ? DecodeW1Events(cur, record.events, error)
                              : DecodeEvents(cur, record.events, error);
      if (!decoded) return false;
      break;
    }
    case WalRecordType::kSeal: {
      record.accepted = cur.GetU64();
      record.rejected = cur.GetU64();
      record.certifiable = cur.GetU8() != 0;
      break;
    }
    case WalRecordType::kStreamCursor: {
      record.edge = cur.GetU64();
      record.cursor_seq = cur.GetU64();
      record.mapping = cur.GetBytes(cur.GetU32());
      break;
    }
    case WalRecordType::kEvict:
    case WalRecordType::kResume:
    case WalRecordType::kClose:
      break;
  }
  return FinishPayload(cur, payload, error);
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

// Fsyncs the directory containing `path` so a just-renamed file's
// directory entry is durable (the tmp+rename atomic-publish idiom).
Status SyncParentDir(const std::string& path) {
  std::string dir = ".";
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash);
  if (dir.empty()) dir = "/";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open dir", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync dir", dir);
  return Status::OK();
}

// write(2) until done; false (errno set) on a real error.
bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// A whole w2 WAL image: the magic, then one frame per record.
std::string EncodeWalFile(const std::vector<WalRecord>& records) {
  std::string content(kWalMagic, sizeof(kWalMagic));
  for (const auto& record : records) content += EncodeWalRecord(record);
  return content;
}

}  // namespace

StatusOr<int> PublishFile(const std::string& path, const std::string& bytes,
                          bool keep_open) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);
  const auto abandon = [&](const char* what) {
    const Status status = ErrnoStatus(what, tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };
  if (!WriteAll(fd, bytes.data(), bytes.size())) return abandon("write");
  if (::fsync(fd) != 0) return abandon("fsync");
  if (::rename(tmp.c_str(), path.c_str()) != 0) return abandon("rename");
  const Status dir_synced = SyncParentDir(path);
  if (!dir_synced.ok() || !keep_open) ::close(fd);
  COMPTX_RETURN_IF_ERROR(dir_synced);
  return keep_open ? fd : -1;
}

uint32_t Crc32(const void* data, size_t size) {
  // Table generated once from the reflected polynomial 0xEDB88320.
  static const uint32_t* const kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

StatusOr<FsyncPolicy> ParseFsyncPolicy(const std::string& text) {
  if (text == "none") return FsyncPolicy::kNone;
  if (text == "interval") return FsyncPolicy::kInterval;
  if (text == "always") return FsyncPolicy::kAlways;
  return Status::InvalidArgument("unknown fsync policy '" + text +
                                 "' (want always|interval|none)");
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "?";
}

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kOpen:
      return "OPEN";
    case WalRecordType::kAppend:
      return "APPEND";
    case WalRecordType::kSeal:
      return "SEAL";
    case WalRecordType::kEvict:
      return "EVICT";
    case WalRecordType::kResume:
      return "RESUME";
    case WalRecordType::kClose:
      return "CLOSE";
    case WalRecordType::kStreamCursor:
      return "CURSOR";
  }
  return "?";
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload;
  PutU8(payload, static_cast<uint8_t>(record.type));
  PutU64(payload, record.seq);
  switch (record.type) {
    case WalRecordType::kOpen:
      PutU32(payload, static_cast<uint32_t>(record.options.size()));
      payload.append(record.options);
      break;
    case WalRecordType::kAppend:
      workload::AppendVarint(payload, record.events.size());
      for (const auto& event : record.events) {
        workload::AppendEventBinary(payload, event);
      }
      break;
    case WalRecordType::kSeal:
      PutU64(payload, record.accepted);
      PutU64(payload, record.rejected);
      PutU8(payload, record.certifiable ? 1 : 0);
      break;
    case WalRecordType::kStreamCursor:
      PutU64(payload, record.edge);
      PutU64(payload, record.cursor_seq);
      PutU32(payload, static_cast<uint32_t>(record.mapping.size()));
      payload.append(record.mapping);
      break;
    case WalRecordType::kEvict:
    case WalRecordType::kResume:
    case WalRecordType::kClose:
      break;
  }
  std::string frame;
  frame.reserve(8 + payload.size());
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  PutU32(frame, Crc32(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

StatusOr<WalReadResult> ReadWalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  const auto starts_with = [&](const char (&magic)[8]) {
    return content.size() >= sizeof(magic) &&
           std::memcmp(content.data(), magic, sizeof(magic)) == 0;
  };
  WalReadResult result;
  result.w1 = starts_with(kWalMagicV1);
  if (!result.w1 && !starts_with(kWalMagic)) {
    return Status::InvalidArgument(path + " is not a comptx WAL (bad magic)");
  }

  const std::string_view bytes(content);
  size_t pos = sizeof(kWalMagic);
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    const auto fail = [&](const std::string& why) {
      result.clean = false;
      result.damage = "lsn " + std::to_string(result.records.size()) +
                      " at offset " + std::to_string(pos) + ": " + why;
    };
    if (pos + 8 > bytes.size()) {
      fail("torn frame header");
      break;
    }
    ByteCursor header{bytes.substr(pos, 8)};
    const uint32_t len = header.GetU32();
    const uint32_t crc = header.GetU32();
    if (len < 9 || len > kMaxWalPayloadBytes) {
      fail("frame length " + std::to_string(len) + " out of range");
      break;
    }
    if (pos + 8 + len > bytes.size()) {
      fail("torn frame payload");
      break;
    }
    const std::string_view payload = bytes.substr(pos + 8, len);
    if (Crc32(payload.data(), payload.size()) != crc) {
      fail("crc mismatch");
      break;
    }
    WalRecord record;
    std::string error;
    if (!DecodePayload(payload, result.w1, record, error)) {
      fail(error);
      break;
    }
    result.records.push_back(std::move(record));
    pos += 8 + len;
    result.valid_bytes = pos;
  }
  result.truncation_lsn = result.records.size();
  return result;
}

Status RepairWalFile(const std::string& path, const WalReadResult& result) {
  if (result.clean) return Status::OK();
  if (::truncate(path.c_str(), static_cast<off_t>(result.valid_bytes)) != 0) {
    return ErrnoStatus("truncate", path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// WalWriter

WalWriter::WalWriter(std::string path, int fd, FsyncPolicy policy,
                     Counters* counters, uint64_t next_lsn)
    : path_(std::move(path)),
      policy_(policy),
      counters_(counters),
      fd_(fd),
      next_lsn_(next_lsn) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                       FsyncPolicy policy,
                                                       Counters* counters) {
  const int fd = ::open(path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  std::unique_ptr<WalWriter> writer(
      new WalWriter(path, fd, policy, counters, 0));
  COMPTX_RETURN_IF_ERROR(writer->WriteFully(kWalMagic, sizeof(kWalMagic)));
  if (counters != nullptr) {
    counters->wal_bytes.fetch_add(sizeof(kWalMagic),
                                  std::memory_order_relaxed);
  }
  return writer;
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::OpenExisting(
    const std::string& path, FsyncPolicy policy, Counters* counters,
    const WalReadResult& scan) {
  if (!scan.clean) {
    return Status::FailedPrecondition(
        "refusing to append to a torn WAL (repair first): " + scan.damage);
  }
  if (!scan.w1) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus("open", path);
    return std::unique_ptr<WalWriter>(
        new WalWriter(path, fd, policy, counters, scan.records.size()));
  }
  // A comptxw1 log: rewrite it once as w2, atomically, before anything is
  // appended, so no file ever holds frames of both formats.
  const std::string content = EncodeWalFile(scan.records);
  COMPTX_ASSIGN_OR_RETURN(const int fd, PublishFile(path, content, true));
  if (counters != nullptr) {
    counters->fsyncs.fetch_add(1, std::memory_order_relaxed);
    counters->wal_bytes.fetch_add(content.size(), std::memory_order_relaxed);
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, fd, policy, counters, scan.records.size()));
}

Status WalWriter::WriteFully(const void* data, size_t size) {
  if (!WriteAll(fd_, static_cast<const char*>(data), size)) {
    return ErrnoStatus("write", path_);
  }
  return Status::OK();
}

StatusOr<uint64_t> WalWriter::Append(const WalRecord& record) {
  const std::string frame = EncodeWalRecord(record);
  std::lock_guard<std::mutex> lock(mu_);
  COMPTX_RETURN_IF_ERROR(WriteFully(frame.data(), frame.size()));
  ++appended_;
  if (counters_ != nullptr) {
    counters_->wal_bytes.fetch_add(frame.size(), std::memory_order_relaxed);
    if (record.type == WalRecordType::kAppend) {
      counters_->wal_appends.fetch_add(1, std::memory_order_relaxed);
      counters_->wal_append_events.fetch_add(record.events.size(),
                                             std::memory_order_relaxed);
    }
  }
  return next_lsn_.fetch_add(1, std::memory_order_relaxed);
}

Status WalWriter::SyncForAck() {
  if (policy_ != FsyncPolicy::kAlways) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  return SyncLocked(lock);
}

Status WalWriter::SyncNow() {
  std::unique_lock<std::mutex> lock(mu_);
  return SyncLocked(lock);
}

Status WalWriter::SyncLocked(std::unique_lock<std::mutex>& lock) {
  // Group commit: the target is the append watermark at entry.  Whoever
  // finds no sync in flight becomes the leader and fsyncs everything
  // appended so far; late arrivals whose appends are already covered
  // return without touching the disk.
  const uint64_t target = appended_;
  while (durable_ < target) {
    if (sync_in_progress_) {
      cv_.wait(lock);
      continue;
    }
    sync_in_progress_ = true;
    const uint64_t covered = appended_;
    // Capture the fd before dropping the lock: CompactThrough swaps fd_,
    // and it waits for sync_in_progress_ to clear, so this descriptor
    // stays open for the whole fsync.
    const int fd = fd_;
    lock.unlock();
    const int rc = ::fsync(fd);
    lock.lock();
    sync_in_progress_ = false;
    if (rc == 0 && covered > durable_) durable_ = covered;
    if (counters_ != nullptr) {
      counters_->fsyncs.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
    if (rc != 0) return ErrnoStatus("fsync", path_);
  }
  return Status::OK();
}

Status WalWriter::CompactThrough(uint64_t watermark, const WalRecord& open,
                                 const WalRecord& seal) {
  std::unique_lock<std::mutex> lock(mu_);
  // A group-commit leader may be mid-fsync on fd_ with mu_ released;
  // wait it out so closing/swapping fd_ below never races the fsync.
  while (sync_in_progress_) cv_.wait(lock);
  // Re-scan our own file (every frame was written unbuffered, and the
  // lock holds appends off, so the scan is complete and clean).
  COMPTX_ASSIGN_OR_RETURN(WalReadResult scan, ReadWalFile(path_));
  if (!scan.clean) {
    return Status::Internal("own WAL scans dirty during compaction: " +
                            scan.damage);
  }
  std::vector<WalRecord> records;
  records.push_back(open);
  for (auto& record : scan.records) {
    if (record.type == WalRecordType::kStreamCursor) {
      // Cursor records carry incremental remap deltas: recovering an
      // edge's translation tables folds every delta, so compaction must
      // never drop one (they are a few dozen bytes each).
      records.push_back(std::move(record));
      continue;
    }
    if (record.type != WalRecordType::kAppend || record.events.empty()) {
      continue;
    }
    if (record.seq + record.events.size() - 1 > watermark) {
      records.push_back(std::move(record));
    }
  }
  records.push_back(seal);
  // +2 for the frames just added: dropped counts frames of the old file
  // that the new file no longer carries.
  const uint64_t dropped = scan.records.size() + 2 - records.size();

  const std::string content = EncodeWalFile(records);
  COMPTX_ASSIGN_OR_RETURN(const int fd, PublishFile(path_, content, true));
  // The old fd now points at the unlinked inode; appends must go to the
  // rewritten file.
  ::close(fd_);
  fd_ = fd;
  if (counters_ != nullptr) {
    counters_->fsyncs.fetch_add(1, std::memory_order_relaxed);
    counters_->wal_bytes.fetch_add(content.size(), std::memory_order_relaxed);
    counters_->records_truncated.fetch_add(dropped, std::memory_order_relaxed);
  }
  // Everything in the new file is already durable; wake any SyncLocked
  // waiter whose target the compaction just covered.
  ++appended_;
  durable_ = appended_;
  next_lsn_.store(records.size(), std::memory_order_relaxed);
  cv_.notify_all();
  return Status::OK();
}

}  // namespace comptx::durability
