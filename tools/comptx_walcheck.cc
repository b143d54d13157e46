// Durability-directory inspector: verify, dump and repair the per-session
// WALs and snapshots written by comptx_serve --data-dir (DESIGN.md §11).
//
// Usage: comptx_walcheck [--dump] [--repair] [--quiet] <path>...
//
//   <path> is a durability directory (all s<id>.wal / s<id>.snap inside
//   are checked) or an individual file.  For each WAL the tool reports
//   its format (comptxw2, or a comptxw1 file the server has not yet
//   rewritten), the record count, the event watermark, the last lifecycle marker and
//   — when the tail is torn or corrupt — the precise truncation LSN and
//   byte offset a repair would cut at.  --repair truncates torn WALs in
//   place (exactly what server recovery does); snapshots are never
//   "repaired" — a damaged snapshot is real corruption, not a torn write,
//   and is only reported.  --dump additionally prints every record (and
//   each APPEND's events as trace lines).
//
// Exit codes: 0 = everything clean (or repaired under --repair),
//             1 = damage found (and left in place), 2 = usage/IO error.

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "util/version.h"
#include "workload/trace.h"

namespace {

using namespace comptx;  // NOLINT
namespace fs = std::filesystem;

struct CheckOptions {
  bool dump = false;
  bool repair = false;
  bool quiet = false;
};

int Usage(int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: comptx_walcheck [--dump] [--repair] [--quiet] <path>...\n"
         "\n"
         "Verifies comptx durability state: <path> is a data directory\n"
         "or an individual .wal/.snap file.  --repair truncates torn WAL\n"
         "tails in place; --dump prints every record.\n"
         "\n"
         "Exit: 0 clean (or repaired), 1 damage found, 2 usage/IO error.\n";
  return code;
}

void DumpRecord(uint64_t lsn, const durability::WalRecord& record) {
  std::cout << "  lsn=" << lsn << " "
            << durability::WalRecordTypeName(record.type)
            << " seq=" << record.seq;
  switch (record.type) {
    case durability::WalRecordType::kOpen:
      std::cout << " options='" << record.options << "'";
      break;
    case durability::WalRecordType::kAppend:
      std::cout << " count=" << record.events.size();
      break;
    case durability::WalRecordType::kSeal:
      std::cout << " accepted=" << record.accepted
                << " rejected=" << record.rejected
                << " certifiable=" << (record.certifiable ? 1 : 0);
      break;
    case durability::WalRecordType::kStreamCursor:
      std::cout << " edge=" << record.edge << " cursor_seq="
                << record.cursor_seq << " mapping_bytes="
                << record.mapping.size();
      break;
    default:
      break;
  }
  std::cout << "\n";
  if (record.type == durability::WalRecordType::kAppend) {
    for (const auto& event : record.events) {
      std::cout << "    " << workload::FormatTraceEvent(event) << "\n";
    }
  }
}

/// Checks one WAL; returns true when the file is (or was made) clean.
bool CheckWal(const std::string& path, const CheckOptions& options) {
  auto scan = durability::ReadWalFile(path);
  if (!scan.ok()) {
    std::cout << path << ": ERROR " << scan.status().message() << "\n";
    return false;
  }
  uint64_t events = 0;
  uint64_t watermark = 0;
  uint64_t stream_cursors = 0;
  // Distinct upstream edges with at least one cursor record, and the
  // furthest durable cursor seen per edge (later records supersede).
  std::map<uint64_t, uint64_t> edge_cursors;
  std::string lifecycle = "live";
  for (const auto& record : scan->records) {
    switch (record.type) {
      case durability::WalRecordType::kAppend:
        events += record.events.size();
        if (!record.events.empty()) {
          watermark =
              std::max<uint64_t>(watermark,
                                 record.seq + record.events.size() - 1);
        }
        break;
      case durability::WalRecordType::kSeal:
        watermark = std::max(watermark, record.seq);
        break;
      case durability::WalRecordType::kEvict:
        lifecycle = "evicted";
        break;
      case durability::WalRecordType::kResume:
        lifecycle = "live";
        break;
      case durability::WalRecordType::kClose:
        lifecycle = "closed";
        break;
      case durability::WalRecordType::kStreamCursor:
        // Does not consume an event seq slot (certifier replay skips
        // it); track the furthest durable cursor per upstream edge.
        ++stream_cursors;
        edge_cursors[record.edge] =
            std::max(edge_cursors[record.edge], record.cursor_seq);
        break;
      case durability::WalRecordType::kOpen:
        break;
    }
  }
  if (!options.quiet || !scan->clean) {
    std::cout << path << ": " << (scan->w1 ? "comptxw1" : "comptxw2") << ", "
              << scan->records.size() << " record(s), "
              << events << " event(s), watermark=" << watermark << ", "
              << lifecycle;
    if (stream_cursors > 0) {
      std::cout << ", " << stream_cursors << " stream cursor(s) on "
                << edge_cursors.size() << " edge(s) [";
      bool first = true;
      for (const auto& [edge, cursor] : edge_cursors) {
        if (!first) std::cout << " ";
        first = false;
        std::cout << "edge " << edge << " @" << cursor;
      }
      std::cout << "]";
    }
    if (scan->clean) {
      std::cout << ", clean\n";
    } else {
      std::cout << ", TORN: " << scan->damage << " (truncation lsn="
                << scan->truncation_lsn << ", valid bytes="
                << scan->valid_bytes << ")\n";
    }
  }
  if (options.dump) {
    for (size_t i = 0; i < scan->records.size(); ++i) {
      DumpRecord(i, scan->records[i]);
    }
  }
  if (scan->clean) return true;
  if (!options.repair) return false;
  const Status repaired = durability::RepairWalFile(path, *scan);
  if (!repaired.ok()) {
    std::cout << path << ": repair failed: " << repaired << "\n";
    return false;
  }
  std::cout << path << ": repaired (truncated to " << scan->valid_bytes
            << " bytes)\n";
  return true;
}

bool CheckSnapshot(const std::string& path, const CheckOptions& options) {
  auto snapshot = durability::ReadSnapshotFile(path);
  if (!snapshot.ok()) {
    std::cout << path << ": CORRUPT " << snapshot.status().message()
              << " (snapshots are published atomically; not repairable)\n";
    return false;
  }
  if (!options.quiet) {
    std::cout << path << ": session=" << snapshot->session_id
              << " event_seq=" << snapshot->event_seq
              << " accepted=" << snapshot->state.accepted
              << " rejected=" << snapshot->state.rejected
              << " certifiable=" << (snapshot->state.certifiable ? 1 : 0)
              << " sealed=" << snapshot->state.sealed.size()
              << " trace_bytes=" << snapshot->state.trace.size()
              << ", clean\n";
  }
  if (options.dump) {
    std::cout << "  options='" << snapshot->options << "'\n";
  }
  return true;
}

bool CheckPath(const std::string& path, const CheckOptions& options,
               bool* io_error) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    bool clean = true;
    const auto ids = durability::ListDurableSessionIds(path);
    if (ids.empty() && !options.quiet) {
      std::cout << path << ": no durable sessions\n";
    }
    for (const uint64_t id : ids) {
      const std::string wal = durability::WalPath(path, id);
      const std::string snap = durability::SnapshotPath(path, id);
      if (fs::exists(wal, ec)) clean = CheckWal(wal, options) && clean;
      if (fs::exists(snap, ec)) clean = CheckSnapshot(snap, options) && clean;
    }
    return clean;
  }
  if (!fs::exists(path, ec)) {
    std::cerr << path << ": no such file or directory\n";
    *io_error = true;
    return false;
  }
  if (path.size() > 5 && path.compare(path.size() - 5, 5, ".snap") == 0) {
    return CheckSnapshot(path, options);
  }
  return CheckWal(path, options);
}

}  // namespace

int main(int argc, char** argv) {
  CheckOptions options;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      PrintToolVersion("comptx_walcheck");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else if (arg == "--dump") {
      options.dump = true;
    } else if (arg == "--repair") {
      options.repair = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag " << arg << "\n";
      return Usage(2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "no paths given\n";
    return Usage(2);
  }
  bool clean = true;
  bool io_error = false;
  for (const std::string& path : paths) {
    clean = CheckPath(path, options, &io_error) && clean;
  }
  if (io_error) return 2;
  return clean ? 0 : 1;
}
