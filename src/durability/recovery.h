#ifndef COMPTX_DURABILITY_RECOVERY_H_
#define COMPTX_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/snapshot.h"
#include "durability/wal.h"
#include "online/certifier.h"
#include "util/status_or.h"

namespace comptx::durability {

/// File layout: one WAL and at most one snapshot per session, named by
/// the server-assigned session id inside the durability directory.
std::string WalPath(const std::string& dir, uint64_t id);
std::string SnapshotPath(const std::string& dir, uint64_t id);

/// Everything on disk about one session, as read (and nothing else: no
/// repair, no replay).  The recovery state machine (DESIGN.md §11.4)
/// classifies a session from its lifecycle flags:
///   closed      -> the CLOSE ack was durable; delete the files.
///   evicted     -> persisted-then-evicted; leave on disk, resumable.
///   otherwise   -> live at crash time; rebuild into memory.
struct SessionDurableState {
  uint64_t id = 0;
  std::string dir;
  std::string options;   // OPEN options text (snapshot wins over the log)
  bool closed = false;
  bool evicted = false;
  bool has_snapshot = false;
  Snapshot snapshot;
  uint64_t event_seq = 0;  // highest durably logged 1-based event seq
  std::vector<WalRecord> wal_records;  // valid records, in LSN order
  WalReadResult wal_scan;              // torn-tail details for repair
  bool wal_missing = false;            // no usable WAL file

  /// True when neither file yields anything replayable: no snapshot and
  /// not a single valid WAL record.  Recovery discards such sessions (a
  /// crash before the OPEN frame hit the disk — the OPEN is fsynced
  /// before its ack, so an acked session always has at least that
  /// record and survives, even with zero events and empty options).
  bool Empty() const { return !has_snapshot && wal_records.empty(); }

  /// The logged events not covered by the snapshot, in stream order with
  /// their 1-based sequence numbers.  A compaction keeps whole records,
  /// so a record may straddle the watermark; covered prefixes are
  /// skipped here rather than on disk.
  std::vector<workload::TraceEvent> SuffixEvents() const;
};

/// Session ids present in `dir` (union of *.wal and *.snap), ascending.
std::vector<uint64_t> ListDurableSessionIds(const std::string& dir);

/// Reads both files of session `id`.  kNotFound when neither exists.
/// A torn WAL tail is normal crash damage and is reported through
/// `wal_scan` (records past it are simply absent); a corrupt *snapshot*
/// is an error — snapshots are published atomically, so damage there
/// means real corruption and the session must not be served silently.
StatusOr<SessionDurableState> ReadSessionDurableState(const std::string& dir,
                                                      uint64_t id);

/// Deletes both files of session `id`; missing files are fine.
Status RemoveSessionFiles(const std::string& dir, uint64_t id);

/// Rebuilds a certifier: restore the snapshot image (if any), then
/// replay the WAL suffix through Ingest.  Replay repeats the original
/// accept/reject decisions, so the rebuilt counters equal the original
/// stream's.
/// When `accepted_stream` is non-null, every replayed event the certifier
/// accepted — excluding kCommit/kCommitThrough, which are never published
/// upstream — is appended to it in ingest order.  This is how a stream
/// (`stream=1`) session rebuilds its order-stream log after a restart:
/// such sessions never snapshot, so the replayed suffix is the whole
/// history and the collected subsequence reproduces the pre-crash stream
/// sequence numbers exactly.
StatusOr<std::unique_ptr<online::Certifier>> RebuildCertifier(
    const SessionDurableState& state, const online::CertifierOptions& options,
    std::vector<workload::TraceEvent>* accepted_stream = nullptr);

/// The RecoveryVerifier differential check: a recovered session's online
/// verdict must match batch CheckCompC over its live window (the trace a
/// snapshot of it would hold), and its counters must account for every
/// durably logged event (`accepted + rejected == expected_events`).
/// Returns kInternal with a description on any disagreement.
Status VerifyRecovery(const online::Certifier& certifier,
                      uint64_t expected_events);

}  // namespace comptx::durability

#endif  // COMPTX_DURABILITY_RECOVERY_H_
