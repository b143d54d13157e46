#ifndef COMPTX_SERVICE_SERVER_H_
#define COMPTX_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/event_loop.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "service/socket.h"
#include "util/thread_pool.h"

namespace comptx::service {

/// Server-wide knobs (per-session knobs live in SessionOptions).
struct ServerOptions {
  /// Certification workers.  Each drains one session at a time, so this
  /// bounds how many sessions certify concurrently.
  size_t workers = DefaultThreadCount();

  /// epoll I/O threads for the network front end (event_loop.h).  Only
  /// meaningful once Listen() is called; in-process use spawns none.
  size_t io_threads = 2;

  /// Request-handler threads behind the I/O threads (0 = auto: the
  /// larger of 4 and `workers`).  Handle() blocks on backpressure, drain
  /// barriers and fsync, so handlers are sized independently of the I/O
  /// threads that must never block.
  size_t handler_threads = 0;

  /// Admission control: OPEN fails once this many sessions are live.
  size_t max_sessions = 1024;

  /// Defaults for OPEN (overridable per session via key=value options).
  SessionOptions session;

  /// Events a worker ingests per run-queue slice.  Small enough to keep
  /// many sessions advancing fairly, large enough to amortize the queue
  /// hand-off.
  size_t batch_size = 256;

  /// Evict sessions with no traffic for this long (0 disables).  Without
  /// durability an evicted id answers not_found afterwards, exactly like
  /// a closed session; with durability the session is persisted first and
  /// an OPEN with resume=<id> restores it from disk.
  uint64_t idle_timeout_ms = 0;

  /// Log one metrics line at this interval (0 disables).
  uint64_t stats_interval_ms = 0;

  /// Per-session WAL + snapshots + crash recovery (DESIGN.md §11); off
  /// while `durability.dir` is empty.
  durability::Options durability;
};

/// The multi-session certification server.
///
/// Layering: Handle() is the complete service — the wire front end
/// (Listen + Start) just moves frames between sockets and Handle, and the
/// in-process tests, the stress suite and bench_service call Handle
/// directly.  Inside, an OPEN admits a session (SessionManager), APPEND
/// enqueues events into the session's bounded queue and hands the session
/// to the run queue, and `workers` worker threads drain scheduled
/// sessions batch by batch
/// through their online certifiers.  QUERY/CLOSE are drain barriers: they
/// wait for the session's queue to empty, then read the verdict.
///
/// Shutdown() is graceful: new work is refused, every live session drains
/// through the still-running workers, then the workers, ticker and
/// network threads stop.  Safe to call from any thread (the SHUTDOWN
/// command triggers it from a connection handler) and idempotent.
class CertificationServer {
 public:
  explicit CertificationServer(const ServerOptions& options = {});
  ~CertificationServer();

  CertificationServer(const CertificationServer&) = delete;
  CertificationServer& operator=(const CertificationServer&) = delete;

  // ---- in-process API ----------------------------------------------
  Response Handle(const Request& request);

  /// Typed conveniences over Handle (used by tests and the bench).
  StatusOr<uint64_t> Open(const std::string& options = "");
  Status Append(uint64_t session, std::vector<workload::TraceEvent> events);
  StatusOr<SessionVerdict> Query(uint64_t session);
  StatusOr<SessionVerdict> Close(uint64_t session);

  ServiceMetrics& metrics() { return metrics_; }
  const ServerOptions& options() const { return options_; }
  size_t SessionCount() const { return sessions_.Count(); }

  // ---- distributed extension (DESIGN.md §15) -----------------------
  /// Handler for the ATTACH/DETACH/PREPARE/DECIDE command family.  The
  /// server serves the *publisher* side of ORDER_STREAM
  /// (SUBSCRIBE/STREAM) natively; the consumer/commit side lives in
  /// src/distributed, which links against this library — so comptx_serve
  /// and the distributed tests inject the controller here instead of the
  /// server depending upward.  Set before serving (not thread-safe
  /// against concurrent Handle); while unset the four commands answer
  /// `unsupported`.
  using DistributedHandler = std::function<Response(const Request&)>;
  void SetDistributedHandler(DistributedHandler handler);

  /// Distributed-layer access: resolves a live session by id.
  StatusOr<std::shared_ptr<Session>> FindSession(uint64_t id) const;

  /// Hands a remotely ingested (already remapped) batch to `session`:
  /// Session::EnqueueIngested logs the events and edge cursor in one WAL
  /// hold, then the session joins the run queue.  `events` may be empty —
  /// a fully deduplicated batch still advances the durable cursor.
  Status IngestRemote(uint64_t session,
                      std::vector<workload::TraceEvent> events, uint64_t edge,
                      uint64_t cursor_seq, const std::string& mapping);

  /// Durability/recovery outcome of construction.  Non-OK when the data
  /// dir could not be set up, a session failed to rebuild, or (with
  /// verify_recovery) a recovered verdict diverged from the batch oracle.
  /// The daemon refuses to serve in that case; tests assert on it.
  const Status& InitStatus() const { return init_status_; }

  /// Runs one idle-eviction sweep now (the ticker calls this
  /// periodically; tests call it directly).  Returns evicted sessions.
  size_t EvictIdleNow();

  // ---- network front end -------------------------------------------
  /// Binds and starts the acceptor; endpoint.port carries the bound port
  /// back for port 0.  Call at most once, before Shutdown.
  Status Listen(Endpoint& endpoint);

  /// Marks the server as draining (new OPEN/APPEND/QUERY/CLOSE are
  /// refused) and wakes WaitShutdown.  The SHUTDOWN command calls this —
  /// not Shutdown() directly, which would join the very connection thread
  /// handling the command.
  void RequestShutdown();

  /// Graceful drain + full teardown; returns once everything stopped.
  /// Idempotent; concurrent callers block until the teardown finishes.
  void Shutdown();

  /// Blocks until a shutdown was requested (the daemon's main thread
  /// parks here, then runs Shutdown()).
  void WaitShutdown();

  bool ShuttingDown() const;

 private:
  void WorkerLoop();
  void TickerLoop();
  void ScheduleSession(std::shared_ptr<Session> session);

  /// The command switch behind Handle (which wraps mutating commands in
  /// the draining check + in-flight count).
  Response Dispatch(const Request& request);

  Response HandleOpen(const Request& request);
  Response HandleAppend(const Request& request);
  Response HandleQueryOrClose(const Request& request, bool close);
  /// Query/Close behind Handle: the reply's verdict fields, all of them.
  StatusOr<SessionVerdict> VerdictCommand(CommandKind kind, uint64_t session);
  Response HandleStats(const Request& request);
  Response HandleSubscribe(const Request& request);
  Response HandleStream(const Request& request);

  const ServerOptions options_;
  ServiceMetrics metrics_;
  DistributedHandler distributed_handler_;
  // Declared before sessions_: the session manager holds a raw pointer
  // into the durability manager, so construction/destruction order
  // matters.  init_status_ collects durability setup + recovery failures
  // (a constructor cannot return a Status).
  Status init_status_;
  std::unique_ptr<durability::Manager> durability_;
  SessionManager sessions_;

  // Run queue: sessions with pending events, each present at most once
  // (Session::scheduled_).  Workers block here when the service is idle.
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  std::deque<std::shared_ptr<Session>> run_queue_;
  bool stop_workers_ = false;

  // One WorkerLoop thread per worker, joined in Shutdown.
  std::vector<std::thread> workers_;

  std::thread ticker_;  // idle eviction + periodic stats line
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool stop_ticker_ = false;

  // Network front end: the epoll event loop (event_loop.h).  Null until
  // Listen(); in-process servers never create one.
  std::unique_ptr<EventLoop> event_loop_;

  mutable std::mutex state_mu_;
  std::condition_variable shutdown_cv_;
  std::atomic<bool> shutting_down_{false};
  bool shutdown_started_ = false;
  bool shutdown_complete_ = false;
  // Mutating requests (OPEN/APPEND/QUERY/CLOSE) currently inside
  // Dispatch.  Incremented under state_mu_ only while !shutting_down_;
  // Shutdown waits for zero before snapshotting the session table, so a
  // request that passed the draining check cannot land work behind the
  // drain.
  size_t inflight_requests_ = 0;
};

}  // namespace comptx::service

#endif  // COMPTX_SERVICE_SERVER_H_
