#ifndef COMPTX_SERVICE_SESSION_MANAGER_H_
#define COMPTX_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "durability/manager.h"
#include "online/certifier.h"
#include "service/metrics.h"
#include "util/status_or.h"
#include "workload/trace.h"

namespace comptx::service {

/// Per-session knobs, settable per OPEN via key=value options.
struct SessionOptions {
  online::CertifierOptions certifier;

  /// Bounded event queue: producers (connection handlers) block once this
  /// many events are waiting, which is the service's backpressure — a
  /// client streaming faster than the workers certify is slowed to the
  /// certification rate instead of growing the heap.
  size_t queue_capacity = 4096;

  /// Non-zero: this OPEN resumes the evicted (or shut-down-while-evicted)
  /// session with that id from the durability directory instead of
  /// creating a new session.  Requires the server to run with a data dir.
  uint64_t resume = 0;

  /// Stream (ORDER_STREAM publisher) session: every accepted non-commit
  /// event is appended to an in-memory stream log with a 1-based
  /// monotonic sequence number that downstream subscribers fetch via
  /// STREAM.  The session's WAL doubles as the replication log — it is
  /// exempted from snapshots and compaction so a restart replays the full
  /// history and reproduces the exact sequence numbering (resubscribe-
  /// from-LSN).  Sessions that ATTACH upstream edges must also run in
  /// this mode, so their merged WAL stays a complete, ordered trace.
  bool stream = false;
};

/// Parses "key=value ..." OPEN options (forgetting, auto_prune,
/// queue_capacity, resume, stream) over `defaults`.  The retired
/// static_admission, paranoid and epoch_interval keys are checked and
/// ignored.
StatusOr<SessionOptions> ParseSessionOptions(const std::string& text,
                                             const SessionOptions& defaults);

/// Verdict + lifetime counters returned by QUERY / CLOSE.
struct SessionVerdict {
  uint64_t session = 0;
  bool certifiable = false;
  uint32_t order = 0;
  uint64_t events_accepted = 0;
  uint64_t events_rejected = 0;
  // Window observability (DESIGN.md §13): how much state the session
  // actually holds vs. how much of its history is sealed and reclaimed.
  uint64_t live_nodes = 0;
  uint64_t pruned_nodes = 0;
  uint64_t sealed_roots = 0;
  uint64_t commit_watermark = 0;
  /// Id span the session's node storage covers (CertifierStats): grows
  /// with the stream while some old root stays uncommitted.
  uint64_t window_span = 0;
  std::string failure;  // empty while certifiable
};

/// One STREAM fetch's result: events carry stream sequence numbers
/// `from`, `from+1`, ... contiguously; `watermark` is the highest stream
/// seq the session currently holds, `trimmed` the highest seq no longer
/// fetchable from memory (acked by every subscriber and released).
struct StreamFetchResult {
  uint64_t from = 0;
  std::vector<workload::TraceEvent> events;
  uint64_t watermark = 0;
  uint64_t trimmed = 0;
};

/// One certification session: an online::Certifier behind a bounded event
/// queue.
///
/// Concurrency protocol: any number of producers call Enqueue; exactly
/// one worker at a time drains the queue (the `scheduled_` flag hands a
/// session to at most one worker; the session manager's run queue never
/// holds a session twice).  Verdict readers use WaitDrained as a barrier:
/// it returns once every event enqueued before the call has been ingested,
/// so a QUERY observes all of the client's prior APPENDs.
class Session {
 public:
  /// Fresh session; `log` is null when durability is disabled.
  Session(uint64_t id, const SessionOptions& options, ServiceMetrics* metrics,
          std::shared_ptr<durability::SessionLog> log = nullptr);

  /// Recovered/resumed session: adopts a certifier rebuilt from disk.
  Session(uint64_t id, const SessionOptions& options, ServiceMetrics* metrics,
          std::shared_ptr<durability::SessionLog> log,
          std::unique_ptr<online::Certifier> certifier);

  uint64_t id() const { return id_; }

  /// Enqueues `events`, blocking while the queue is full (backpressure).
  /// `schedule` hands the session to the worker run queue; it is invoked
  /// (at most once per idle->scheduled transition, with `scheduled_`
  /// already flipped) whenever the session holds events but no worker —
  /// in particular for the already-pushed prefix *before* blocking for
  /// space, so a batch larger than the queue capacity cannot deadlock an
  /// idle session.  Fails once the session is closing.
  Status Enqueue(std::vector<workload::TraceEvent> events,
                 const std::function<void()>& schedule);

  /// Enqueue variant for the distributed ingest path: after logging the
  /// batch's APPEND record(s) it appends one kStreamCursor record (edge /
  /// cursor_seq / opaque mapping delta) under the same append_mu_ hold,
  /// so WAL order stays events-then-cursor and a crash between the two
  /// refetches the batch instead of losing it.  `events` may be empty
  /// (a fully deduplicated batch still advances the durable cursor).
  Status EnqueueIngested(std::vector<workload::TraceEvent> events,
                         uint64_t edge, uint64_t cursor_seq,
                         const std::string& mapping,
                         const std::function<void()>& schedule);

  /// Worker side: ingests up to `max_events` queued events.  Returns true
  /// when events remain (the worker re-schedules the session), false when
  /// the queue drained (the session left the run queue).
  bool ProcessBatch(size_t max_events);

  /// Blocks until the queue is empty and no worker is mid-batch.
  void WaitDrained();

  /// Marks the session closing: new Enqueues fail, blocked producers wake
  /// up and fail.  Queued events still drain (graceful).
  void BeginClose();

  /// Current verdict; meaningful after WaitDrained.
  SessionVerdict Verdict() const;

  /// Eviction: atomically checks idleness (empty queue, no worker
  /// attached, no activity since `cutoff`) and, if idle, marks the
  /// session closing in the same critical section.  Because the check
  /// and the close are one step under the session lock, a producer that
  /// already passed the table lookup either enqueued first (the session
  /// is no longer idle and survives) or enqueues after (and fails with
  /// FailedPrecondition) — an acknowledged APPEND can never land in an
  /// evicted session.
  bool CloseIfIdle(std::chrono::steady_clock::time_point cutoff);

  /// Durability lifecycle, all no-ops without a log and all requiring a
  /// drained session (empty queue, no worker attached) — the callers
  /// guarantee that via CloseIfIdle / BeginClose+WaitDrained:
  ///   PersistEvicted   - snapshot + durable EVICT marker; files stay for
  ///                      a later resume=<id> OPEN.
  ///   PersistShutdown  - snapshot + fsync; the session recovers as live.
  ///   DiscardDurableState - durable CLOSE marker, then delete the files.
  Status PersistEvicted();
  Status PersistShutdown();
  Status DiscardDurableState();

  /// Publishes the certifier's live-node / pruning stats into the
  /// service metrics as deltas since the last publication.  The caller
  /// must be the certifier's sole writer — the attached worker (end of
  /// ProcessBatch) or the restore path before the session is published.
  void PublishCertifierStats();

  /// Removes this session's live-node contribution from the gauge.
  /// Called once after the session drained (CLOSE or eviction); the
  /// cumulative prune counters stay.
  void RetireCertifierStats();

  // ---- ORDER_STREAM publisher side (stream=1 sessions) ---------------

  bool stream_enabled() const { return stream_enabled_; }

  /// Long-poll fetch of the accepted-event stream: returns events with
  /// seqs in [from, from+max), blocking up to `wait_ms` for the first one
  /// (the poll doubles as the subscriber's heartbeat — an empty reply
  /// after the wait proves liveness).  `sub`/`ack` (both optional, 0 to
  /// skip) record that subscriber `sub` has durably applied through seq
  /// `ack`; the in-memory log trims to the minimum ack over subscribers.
  /// Fails FailedPrecondition on a non-stream session and OutOfRange when
  /// `from` is at or below the trimmed prefix (the subscriber must
  /// resubscribe from its durable cursor — which can never be below the
  /// trim point, because trims only follow acks).
  StatusOr<StreamFetchResult> FetchStream(uint64_t sub, uint64_t from,
                                          uint64_t max, uint64_t wait_ms,
                                          uint64_t ack);

  /// Highest stream seq currently held (0 on a fresh/non-stream session).
  uint64_t StreamWatermark() const;

  /// Recovery: installs the replayed accepted-event history as the stream
  /// log (seqs 1..events.size()).  Called before the session is published.
  void AdoptStreamLog(std::vector<workload::TraceEvent> events);

 private:
  /// Hands the session to the run queue via `schedule` when it holds
  /// events but no worker.  Caller holds mu_.
  void ScheduleLocked(const std::function<void()>& schedule);

  /// Shared body of Enqueue / EnqueueIngested; `cursor` null for plain
  /// appends.
  struct StreamCursorRecord {
    uint64_t edge;
    uint64_t cursor_seq;
    const std::string* mapping;
  };
  Status EnqueueInternal(std::vector<workload::TraceEvent> events,
                         const StreamCursorRecord* cursor,
                         const std::function<void()>& schedule);

  const uint64_t id_;
  const size_t queue_capacity_;
  const bool stream_enabled_;
  ServiceMetrics* const metrics_;
  std::unique_ptr<online::Certifier> certifier_;
  std::shared_ptr<durability::SessionLog> log_;

  /// Serializes whole Enqueue calls (and DiscardDurableState) so the WAL
  /// record order equals the queue order — the property recovery replay
  /// depends on.  Without it two producers' batches could interleave
  /// mid-batch across a backpressure wait while their WAL records stay
  /// whole.  Ordering: append_mu_ is taken strictly before mu_ and never
  /// by the drain worker, so it adds no cycle to the lock graph.
  std::mutex append_mu_;

  mutable std::mutex mu_;
  std::condition_variable space_cv_;  // producers wait for queue room
  std::condition_variable drain_cv_;  // barriers wait for empty + idle
  std::deque<workload::TraceEvent> queue_;
  bool scheduled_ = false;  // in the run queue or being processed
  bool closing_ = false;
  std::chrono::steady_clock::time_point last_activity_;

  /// Last stats published to the service metrics.  Touched only by the
  /// certifier's sole writer (see PublishCertifierStats), so no lock.
  online::CertifierStats published_stats_{};

  /// Stream log state, under its own lock so long-polling subscribers
  /// never contend with producers on mu_.  closing_stream_ mirrors
  /// closing_ (set in BeginClose/CloseIfIdle) to wake parked fetches.
  mutable std::mutex stream_mu_;
  std::condition_variable stream_cv_;
  std::vector<workload::TraceEvent> stream_log_;  // seqs base+1..base+size
  uint64_t stream_base_ = 0;                      // trimmed prefix length
  std::unordered_map<uint64_t, uint64_t> stream_acks_;  // sub -> acked seq
  bool closing_stream_ = false;
};

/// Owns the session table: admission control (max_sessions), id
/// assignment, lookup, close and idle eviction.  The worker run queue
/// lives in the server, not here — the manager is purely the registry.
///
/// One mutex guards the map, the reserved ids and the id counter, and
/// admission counts the map plus the reserved ids.  The mutex is held
/// only for those updates: creating a session's log (OPEN) and reading
/// and rebuilding one from disk (resume, startup recovery) run outside
/// it, between a reservation and a publication, so file I/O never
/// stalls the per-APPEND lookup.
class SessionManager {
 public:
  /// `durability` may be null (no --data-dir); the manager never owns it.
  SessionManager(size_t max_sessions, ServiceMetrics* metrics,
                 durability::Manager* durability);

  /// Admission control: fails with ResourceExhausted at max_sessions.
  /// `options_text` is the raw OPEN options string, persisted in the
  /// session's OPEN record so recovery rebuilds with the same knobs.
  StatusOr<std::shared_ptr<Session>> Open(const SessionOptions& options,
                                          const std::string& options_text);

  /// Re-opens session `resume_id` from the durability directory: rebuilds
  /// the certifier from its snapshot + WAL suffix, re-registers it under
  /// its original id, and appends a durable RESUME marker.  Fails with
  /// NotFound when nothing durable exists (or the session was closed),
  /// AlreadyExists when the id is live or another resume of it is in
  /// progress, InvalidArgument without durability.  Only
  /// `queue_capacity` from `request` is honored; the certifier knobs come
  /// from the stored OPEN options parsed over `defaults` — the same
  /// layering the original OPEN used — because changing them mid-stream
  /// would change the session's meaning.
  StatusOr<std::shared_ptr<Session>> Resume(uint64_t resume_id,
                                            const SessionOptions& request,
                                            const SessionOptions& defaults);

  /// Startup recovery: scans the durability directory and classifies
  /// every session by its last lifecycle marker — CLOSE: delete files;
  /// EVICT: leave on disk (resumable); otherwise rebuild into the table
  /// as live.  With `verify`, every rebuilt session is cross-checked
  /// against the batch oracle (durability::VerifyRecovery) and any
  /// mismatch fails the whole recovery.  Returns the number of sessions
  /// rebuilt into memory.
  StatusOr<size_t> RecoverAll(const SessionOptions& defaults, bool verify);

  StatusOr<std::shared_ptr<Session>> Find(uint64_t id) const;

  /// Removes the session from the table (the shared_ptr keeps it alive
  /// for in-flight workers).  NotFound when absent.
  StatusOr<std::shared_ptr<Session>> Remove(uint64_t id);

  /// Sessions idle since `cutoff`, atomically marked closing
  /// (Session::CloseIfIdle), removed from the table and persisted as
  /// evicted (a no-op without durability).  Each id stays reserved until
  /// its EVICT marker is written, so a resume of it meanwhile fails with
  /// AlreadyExists.  Sweeps run one at a time: when EvictIdle returns,
  /// every eviction that began before the call is persisted.
  std::vector<std::shared_ptr<Session>> EvictIdle(
      std::chrono::steady_clock::time_point cutoff);

  /// Every live session (shutdown drains them all).
  std::vector<std::shared_ptr<Session>> All() const;

  /// Sessions in the table; a session still opening or resuming counts
  /// once it is published.
  size_t Count() const;

 private:
  /// Reserves `id` for a session that is about to be built outside mu_:
  /// fails with AlreadyExists when the id is live or reserved, and with
  /// ResourceExhausted when max_sessions are live or reserved.  Caller
  /// holds mu_.
  Status ReserveLocked(uint64_t id);

  /// Ends a reservation: adds `session` to the table under `id`, or, when
  /// it is null, releases the id and its admission slot.
  void Publish(uint64_t id, std::shared_ptr<Session> session);

  /// Builds a Session from its on-disk state.  Runs without mu_, under a
  /// reservation of the session's id.  `resume` selects the RESUME marker
  /// (vs. plain startup recovery) and is reflected in the metrics it
  /// bumps.
  StatusOr<std::shared_ptr<Session>> Restore(
      const durability::SessionDurableState& state,
      const SessionOptions& options, bool resume, bool verify);

  const size_t max_sessions_;
  ServiceMetrics* const metrics_;
  durability::Manager* const durability_;

  std::mutex evict_mu_;  // held across a whole EvictIdle; taken before mu_
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  // Ids reserved by an OPEN, resume or recovery that is still creating or
  // reading its files; they count against max_sessions.
  std::unordered_set<uint64_t> reserved_;
  uint64_t next_id_ = 1;
};

}  // namespace comptx::service

#endif  // COMPTX_SERVICE_SESSION_MANAGER_H_
