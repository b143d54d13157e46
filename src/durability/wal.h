#ifndef COMPTX_DURABILITY_WAL_H_
#define COMPTX_DURABILITY_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status_or.h"
#include "workload/trace.h"

namespace comptx::durability {

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320, init/xorout 0xFFFFFFFF) over
/// `data`.  Implemented in-repo so the WAL has no compression-library
/// dependency; the standard check value is Crc32("123456789") ==
/// 0xCBF43926.
uint32_t Crc32(const void* data, size_t size);

/// When an fsync is issued for a session WAL (DESIGN.md §11.2).
///
///   kAlways   - group commit: every acked APPEND is durable before the
///               ack (concurrent producers share one fsync).
///   kInterval - a background flusher syncs dirty logs every
///               fsync_interval_ms; a crash can lose up to one interval
///               of *acked* appends to a power failure (not to a process
///               kill: the data is already in the page cache).
///   kNone     - never fsync; durability against process death only.
enum class FsyncPolicy : uint8_t { kNone = 0, kInterval = 1, kAlways = 2 };

StatusOr<FsyncPolicy> ParseFsyncPolicy(const std::string& text);
const char* FsyncPolicyName(FsyncPolicy policy);

/// WAL record types.  Lifecycle markers double as the recovery state
/// machine's input alphabet (DESIGN.md §11.4): the *last* lifecycle
/// marker in the log decides whether a session is rebuilt into memory
/// (SEAL / RESUME / none), left on disk awaiting a resume (EVICT), or
/// deleted (CLOSE).
enum class WalRecordType : uint8_t {
  kOpen = 1,    // session created; payload carries the OPEN options text
  kAppend = 2,  // one acked APPEND batch; payload carries the events
  kSeal = 3,    // snapshot watermark: events <= seq are covered on disk
  kEvict = 4,   // idle session persisted-then-evicted; state stays on disk
  kResume = 5,  // an evicted session was re-opened from disk
  kClose = 6,   // client CLOSE acked; files are deleted (tolerate crash
                // between marker and unlink by deleting at recovery)
  // 7 is retired: it was a commit_through watermark record of its own.
  // ReadWalFile decodes one as the APPEND of that single event, so logs
  // written before watermarks rode in APPEND records still recover.
  kStreamCursor = 8,     // distributed ingest cursor: the downstream
                         // session has durably applied the upstream edge's
                         // stream through `cursor_seq`, together with the
                         // index-mapping delta that batch created.  Does
                         // not consume an event seq slot (certifier replay
                         // skips it); resubscribe-from-LSN folds these to
                         // recover per-edge cursors and remap tables.
};

const char* WalRecordTypeName(WalRecordType type);

/// One decoded WAL record.  `seq` numbers events, 1-based and contiguous
/// per session: for kAppend it is the sequence number of the *first*
/// event in the batch; for every other type it is the event watermark at
/// the time the record was written (how many events precede it).  The LSN
/// of a record is its ordinal position in the file (0-based, counted over
/// valid frames only).
struct WalRecord {
  WalRecordType type = WalRecordType::kOpen;
  uint64_t seq = 0;
  std::vector<workload::TraceEvent> events;  // kAppend
  std::string options;                       // kOpen
  uint64_t accepted = 0;                     // kSeal: certifier counters
  uint64_t rejected = 0;                     //   at the snapshot watermark
  bool certifiable = true;                   // kSeal: verdict at watermark
  uint64_t edge = 0;                         // kStreamCursor: edge id
  uint64_t cursor_seq = 0;                   // kStreamCursor: upstream seq
  std::string mapping;                       // kStreamCursor: opaque delta
                                             //   (distributed-layer codec)
};

/// Durability counter block, plain atomics so it can live inside
/// service::ServiceMetrics without a dependency from durability on the
/// service layer.  All counters are cumulative per process.
struct Counters {
  std::atomic<uint64_t> wal_appends{0};        // APPEND records written
  std::atomic<uint64_t> wal_append_events{0};  // events carried by those
                                               // records (ratio to
                                               // wal_appends = group-commit
                                               // amortization)
  std::atomic<uint64_t> wal_bytes{0};          // bytes written to WALs
  std::atomic<uint64_t> fsyncs{0};             // fsync(2) calls issued
  std::atomic<uint64_t> snapshots_written{0};  // snapshot files published
  std::atomic<uint64_t> sessions_recovered{0}; // rebuilt from disk
  std::atomic<uint64_t> records_truncated{0};  // frames dropped: torn-tail
                                               // cuts + compaction drops
  std::atomic<uint64_t> recovered_events{0};   // events replayed from disk
  std::atomic<uint64_t> recovery_mismatches{0};// differential-check fails
};

/// Result of scanning a WAL file.  The reader never fails on damage past
/// the header: it returns every record up to the first bad frame and
/// describes the damage.  `truncation_lsn` is the LSN the file would be
/// truncated to by repair — equal to records.size(), i.e. the first frame
/// that did not decode.
struct WalReadResult {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;     // offset just past the last valid frame
  uint64_t truncation_lsn = 0;  // == records.size()
  bool clean = true;            // false iff bytes follow valid_bytes
  std::string damage;           // human-readable reason scanning stopped
  bool w1 = false;              // a comptxw1 file (fixed-width events);
                                // OpenExisting rewrites it as w2
};

/// Scans `path`, either format (kWalMagic or the older kWalMagicV1).
/// Returns an error only when the file cannot be read at all or its
/// 8-byte magic header is wrong (not a WAL); torn or corrupt tails are
/// reported through WalReadResult, never as a Status.
StatusOr<WalReadResult> ReadWalFile(const std::string& path);

/// Truncates `path` to `result.valid_bytes`, discarding a torn tail in
/// place.  No-op when the scan was clean.
Status RepairWalFile(const std::string& path, const WalReadResult& result);

/// Encodes one record as a framed byte string (DESIGN.md §11.1):
///   [u32 payload_len][u32 crc32(payload)][payload]
/// with payload = [u8 type][u64 seq][type-specific body].  An APPEND body
/// is a varint event count followed by the events in the shared packed
/// encoding (workload/event_codec.h), byte for byte what a v2
/// BATCH_APPEND frame carries.  Exposed for tests and comptx_walcheck.
std::string EncodeWalRecord(const WalRecord& record);

/// Publishes `bytes` at `path` atomically: a temp file beside it, fsync,
/// rename over `path`, fsync of the directory.  With `keep_open` the
/// result is a descriptor of the published file, open for writing at its
/// end and owned by the caller; otherwise the file is closed and the
/// result is -1.  WAL compaction, the one-time w1 -> w2 rewrite and
/// snapshot publication all go through here.
StatusOr<int> PublishFile(const std::string& path, const std::string& bytes,
                          bool keep_open);

/// Append-only writer for one session's WAL.  Thread safety: Append and
/// the Sync* entry points may be called from different threads; the
/// writer serializes internally.  Group commit: concurrent SyncForAck
/// callers ride one fsync (the classic durable-LSN scheme).
class WalWriter {
 public:
  /// Creates (or truncates) the file and writes the magic header.
  static StatusOr<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                     FsyncPolicy policy,
                                                     Counters* counters);

  /// Opens an existing, already-repaired WAL for appending.  `scan` must
  /// be a clean read of the current file contents (recovery repairs the
  /// tail first).  A comptxw1 file is first rewritten whole as w2 (via
  /// PublishFile), so appends never mix the two formats in one file.
  static StatusOr<std::unique_ptr<WalWriter>> OpenExisting(
      const std::string& path, FsyncPolicy policy, Counters* counters,
      const WalReadResult& scan);

  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record (write(2) to the file, no fsync).  Returns the
  /// record's LSN.
  StatusOr<uint64_t> Append(const WalRecord& record);

  /// Makes everything appended so far durable when the policy is kAlways;
  /// a no-op otherwise.  This is the ack barrier for APPEND requests.
  Status SyncForAck();

  /// Fsyncs if anything was written since the last sync, regardless of
  /// policy.  Used by the interval flusher and by lifecycle markers
  /// (EVICT/CLOSE), which must be durable under every policy.
  Status SyncNow();

  /// Compacts the WAL after a snapshot at event watermark `watermark`:
  /// atomically rewrites the file (temp + rename + directory sync) as
  /// [open][APPEND records with events past the watermark][seal],
  /// dropping every frame the snapshot covers (accounted in
  /// records_truncated).  Appends continue against the new file; blocks
  /// concurrent Append for the duration.
  Status CompactThrough(uint64_t watermark, const WalRecord& open,
                        const WalRecord& seal);

  uint64_t next_lsn() const { return next_lsn_.load(std::memory_order_relaxed); }

 private:
  WalWriter(std::string path, int fd, FsyncPolicy policy, Counters* counters,
            uint64_t next_lsn);

  Status WriteFully(const void* data, size_t size);
  Status SyncLocked(std::unique_lock<std::mutex>& lock);

  const std::string path_;
  const FsyncPolicy policy_;
  Counters* const counters_;

  std::mutex mu_;               // file writes + group-commit state
  std::condition_variable cv_;  // wakes SyncForAck waiters
  int fd_ = -1;
  uint64_t appended_ = 0;  // monotone count of write(2) batches
  uint64_t durable_ = 0;   // appended_ value covered by the last fsync
  bool sync_in_progress_ = false;

  std::atomic<uint64_t> next_lsn_{0};
};

/// The 8-byte file magic ("comptxw2": varint-packed APPEND events) and
/// the maximum frame payload the reader accepts.  A frame claiming more
/// is treated as corruption: the wire protocol caps request frames at
/// 4 MiB, so no legitimate record approaches this.
inline constexpr char kWalMagic[8] = {'c', 'o', 'm', 'p', 't', 'x', 'w', '2'};
/// The pre-codec format: APPEND events as a kind byte, four u32 fields
/// and a u32-length name.  Still read; never written.
inline constexpr char kWalMagicV1[8] = {'c', 'o', 'm', 'p',
                                        't', 'x', 'w', '1'};
inline constexpr uint32_t kMaxWalPayloadBytes = 8u << 20;

}  // namespace comptx::durability

#endif  // COMPTX_DURABILITY_WAL_H_
