#include "service/server.h"

#include <algorithm>
#include <chrono>

#include "service/client.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace comptx::service {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

/// Maps a Status to the wire error code.
const char* ErrorCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kResourceExhausted:
      return "session_limit";
    case StatusCode::kFailedPrecondition:
      // A lifecycle race (APPEND vs CLOSE/eviction), not a malformed
      // request: the client should re-OPEN, not fix its framing.
      return "session_closing";
    case StatusCode::kOutOfRange:
      // STREAM asked for a seq at or below the trimmed prefix: the
      // subscriber must resubscribe from its durable cursor.
      return "gap";
    case StatusCode::kAlreadyExists:
      // resume=<id> raced a live, resuming or evicting session: retry
      // once the other holder of the id lets go.
      return "session_busy";
    case StatusCode::kInternal:
      return "internal";
    default:
      return "bad_request";
  }
}

Response StatusResponse(const Status& status) {
  return ErrorResponse(ErrorCode(status), status.message());
}

void AppendVerdictFields(const SessionVerdict& verdict, Response& response) {
  response.fields.emplace_back("session", StrCat(verdict.session));
  response.fields.emplace_back("certifiable",
                               verdict.certifiable ? "1" : "0");
  response.fields.emplace_back("order", StrCat(verdict.order));
  response.fields.emplace_back("accepted", StrCat(verdict.events_accepted));
  response.fields.emplace_back("rejected", StrCat(verdict.events_rejected));
  // Window observability (new fields append after the existing ones, so
  // v1 clients that read positionally keep working).
  response.fields.emplace_back("live_nodes", StrCat(verdict.live_nodes));
  response.fields.emplace_back("pruned_nodes", StrCat(verdict.pruned_nodes));
  response.fields.emplace_back("sealed_roots", StrCat(verdict.sealed_roots));
  response.fields.emplace_back("commit_watermark",
                               StrCat(verdict.commit_watermark));
  response.fields.emplace_back("window_span", StrCat(verdict.window_span));
  // The failure diagnosis contains spaces, so it travels in the body.
  if (!verdict.failure.empty()) response.body = verdict.failure;
}

/// The ORDER_STREAM commands carry "key=value ..." options like OPEN.
struct StreamOptions {
  uint64_t from = 1;
  uint64_t max = 512;
  uint64_t wait_ms = 0;
  uint64_t ack = 0;
  uint64_t sub = 0;
};

StatusOr<StreamOptions> ParseStreamOptions(const std::string& text) {
  StreamOptions options;
  COMPTX_ASSIGN_OR_RETURN(std::vector<KeyValue> tokens,
                          ParseKeyValues(text, "stream option"));
  for (const auto& [key, value] : tokens) {
    COMPTX_ASSIGN_OR_RETURN(const uint64_t parsed, ParseUint64(key, value));
    if (key == "from") {
      options.from = parsed;
    } else if (key == "max") {
      options.max = parsed;
    } else if (key == "wait_ms") {
      options.wait_ms = parsed;
    } else if (key == "ack") {
      options.ack = parsed;
    } else if (key == "sub") {
      options.sub = parsed;
    } else {
      // No silent defaulting: the family is versionless, so a typoed key
      // must fail loudly rather than quietly fetch from seq 1.
      return Status::InvalidArgument(StrCat("unknown stream option '", key,
                                            "'"));
    }
  }
  return options;
}

/// STATS takes one option, json=0|1 (the last one wins).
StatusOr<bool> ParseStatsJson(const std::string& text) {
  COMPTX_ASSIGN_OR_RETURN(std::vector<KeyValue> tokens,
                          ParseKeyValues(text, "STATS option"));
  bool json = false;
  for (const auto& [key, value] : tokens) {
    if (key != "json" || (value != "0" && value != "1")) {
      return Status::InvalidArgument(
          StrCat("unknown STATS option '", key, "=", value, "'"));
    }
    json = value == "1";
  }
  return json;
}

}  // namespace

namespace {

/// Ctor helper: starts the durability manager (or returns null when
/// disabled), parking any failure in `init_status` for InitStatus().
std::unique_ptr<durability::Manager> StartDurability(
    const durability::Options& options, durability::Counters* counters,
    Status* init_status) {
  if (!options.enabled()) return nullptr;
  auto manager = durability::Manager::Start(options, counters);
  if (!manager.ok()) {
    *init_status = manager.status();
    return nullptr;
  }
  return std::move(manager).value();
}

}  // namespace

CertificationServer::CertificationServer(const ServerOptions& options)
    : options_(options),
      durability_(StartDurability(options.durability, &metrics_.durability,
                                  &init_status_)),
      sessions_(options.max_sessions, &metrics_, durability_.get()) {
  // Recover before anything serves or ticks: the table must hold every
  // crashed-but-live session before the first OPEN can reuse an id and
  // before the eviction sweep can observe a half-built table.
  if (durability_ != nullptr && init_status_.ok()) {
    auto recovered = sessions_.RecoverAll(options_.session,
                                          options_.durability.verify_recovery);
    if (!recovered.ok()) {
      init_status_ = recovered.status();
      COMPTX_LOG(Error) << "recovery failed: " << init_status_;
    } else if (*recovered > 0) {
      COMPTX_LOG(Info) << "recovered " << *recovered
                       << " session(s) from " << options_.durability.dir;
    }
  }
  const size_t workers = std::max<size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.idle_timeout_ms > 0 || options_.stats_interval_ms > 0) {
    ticker_ = std::thread([this] { TickerLoop(); });
  }
}

CertificationServer::~CertificationServer() { Shutdown(); }

void CertificationServer::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Session> session;
    {
      std::unique_lock<std::mutex> lock(run_mu_);
      run_cv_.wait(lock,
                   [this] { return stop_workers_ || !run_queue_.empty(); });
      if (run_queue_.empty()) return;  // stop_workers_ and nothing left
      session = std::move(run_queue_.front());
      run_queue_.pop_front();
    }
    if (session->ProcessBatch(options_.batch_size)) {
      ScheduleSession(std::move(session));
    }
  }
}

void CertificationServer::ScheduleSession(std::shared_ptr<Session> session) {
  std::unique_lock<std::mutex> lock(run_mu_);
  run_queue_.push_back(std::move(session));
  run_cv_.notify_one();
}

void CertificationServer::TickerLoop() {
  const auto tick = std::chrono::milliseconds(
      std::max<uint64_t>(10, std::min(options_.idle_timeout_ms > 0
                                          ? options_.idle_timeout_ms
                                          : options_.stats_interval_ms,
                                      options_.stats_interval_ms > 0
                                          ? options_.stats_interval_ms
                                          : options_.idle_timeout_ms)));
  auto last_stats = Clock::now();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(ticker_mu_);
      ticker_cv_.wait_for(lock, tick, [this] { return stop_ticker_; });
      if (stop_ticker_) return;
    }
    if (options_.idle_timeout_ms > 0) EvictIdleNow();
    if (options_.stats_interval_ms > 0 &&
        MicrosSince(last_stats) / 1000 >= options_.stats_interval_ms) {
      last_stats = Clock::now();
      COMPTX_LOG(Info) << "stats " << metrics_.RenderLine();
    }
  }
}

size_t CertificationServer::EvictIdleNow() {
  if (options_.idle_timeout_ms == 0) return 0;
  const auto cutoff =
      Clock::now() - std::chrono::milliseconds(options_.idle_timeout_ms);
  // EvictIdle marks each session closing (Session::CloseIfIdle) in the
  // same critical section as the idle check, so no BeginClose is needed
  // here and no producer can slip an acknowledged APPEND into a session
  // between the check and the removal.  It persists each eviction before
  // returning.
  const std::vector<std::shared_ptr<Session>> evicted =
      sessions_.EvictIdle(cutoff);
  for (const std::shared_ptr<Session>& session : evicted) {
    COMPTX_LOG(Debug) << "evicted idle session " << session->id();
  }
  return evicted.size();
}

Response CertificationServer::Handle(const Request& request) {
  // SUBSCRIBE/STREAM are deliberately *not* in the mutating set: a
  // long-poll STREAM parked in FetchStream would hold the in-flight count
  // and stall Shutdown's drain; instead BeginClose wakes the poll (the
  // subscriber sees a clean empty reply and reconnects elsewhere).
  const bool mutating = request.kind == CommandKind::kOpen ||
                        request.kind == CommandKind::kAppend ||
                        request.kind == CommandKind::kQuery ||
                        request.kind == CommandKind::kClose ||
                        request.kind == CommandKind::kAttach ||
                        request.kind == CommandKind::kDetach ||
                        request.kind == CommandKind::kPrepare ||
                        request.kind == CommandKind::kDecide;
  if (!mutating) return Dispatch(request);
  // The draining check and the in-flight count share state_mu_ with
  // Shutdown's flag flip: a request either observes shutting_down_ and is
  // refused, or is counted in-flight before the flag is set — in which
  // case Shutdown waits for it below, so its session/events are part of
  // the drain snapshot and never stranded behind it.
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    if (shutting_down_.load(std::memory_order_relaxed)) {
      return ErrorResponse("shutting_down", "server is draining");
    }
    ++inflight_requests_;
  }
  Response response = Dispatch(request);
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    if (--inflight_requests_ == 0) shutdown_cv_.notify_all();
  }
  return response;
}

Response CertificationServer::Dispatch(const Request& request) {
  switch (request.kind) {
    case CommandKind::kOpen:
      return HandleOpen(request);
    case CommandKind::kAppend:
      return HandleAppend(request);
    case CommandKind::kQuery:
      return HandleQueryOrClose(request, /*close=*/false);
    case CommandKind::kClose:
      return HandleQueryOrClose(request, /*close=*/true);
    case CommandKind::kStats:
      return HandleStats(request);
    case CommandKind::kSubscribe:
      return HandleSubscribe(request);
    case CommandKind::kStream:
      return HandleStream(request);
    case CommandKind::kAttach:
    case CommandKind::kDetach:
    case CommandKind::kPrepare:
    case CommandKind::kDecide: {
      if (distributed_handler_) return distributed_handler_(request);
      return ErrorResponse("unsupported",
                           "no distributed controller attached");
    }
    case CommandKind::kPing: {
      Response response = OkResponse();
      response.fields.emplace_back("pong", "1");
      return response;
    }
    case CommandKind::kShutdown: {
      RequestShutdown();
      return OkResponse();
    }
  }
  return ErrorResponse("bad_request", "unknown command");
}

Response CertificationServer::HandleOpen(const Request& request) {
  auto options = ParseSessionOptions(request.options, options_.session);
  if (!options.ok()) {
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return StatusResponse(options.status());
  }
  auto session = options->resume != 0
                     ? sessions_.Resume(options->resume, *options,
                                        options_.session)
                     : sessions_.Open(*options, request.options);
  if (!session.ok()) return StatusResponse(session.status());
  Response response = OkResponse();
  response.fields.emplace_back("session", StrCat((*session)->id()));
  if (options->resume != 0) {
    // The resuming client learns where the durable stream ends, so it can
    // continue from there without re-sending covered events.
    const SessionVerdict verdict = (*session)->Verdict();
    response.fields.emplace_back(
        "resumed_events",
        StrCat(verdict.events_accepted + verdict.events_rejected));
  }
  return response;
}

Response CertificationServer::HandleAppend(const Request& request) {
  const auto start = Clock::now();
  auto session = sessions_.Find(request.session);
  if (!session.ok()) return StatusResponse(session.status());
  const size_t count = request.events.size();
  Status status = (*session)->Enqueue(
      request.events, [this, &session] { ScheduleSession(*session); });
  if (!status.ok()) return StatusResponse(status);
  metrics_.append_batches.fetch_add(1, std::memory_order_relaxed);
  metrics_.append_latency.Record(MicrosSince(start));
  Response response = OkResponse();
  response.fields.emplace_back("queued", StrCat(count));
  return response;
}

Response CertificationServer::HandleQueryOrClose(const Request& request,
                                                 bool close) {
  const auto start = Clock::now();
  StatusOr<std::shared_ptr<Session>> session =
      close ? sessions_.Remove(request.session)
            : sessions_.Find(request.session);
  if (!session.ok()) return StatusResponse(session.status());
  if (close) (*session)->BeginClose();
  (*session)->WaitDrained();
  const SessionVerdict verdict = (*session)->Verdict();
  if (close) {
    // Drained and closing: no worker is attached, so retiring the
    // live-node gauge cannot race a publication.
    (*session)->RetireCertifierStats();
    // CLOSE was acked with the final verdict; the durable state has no
    // further consumer.  The CLOSE marker makes a crash between here and
    // the unlink unambiguous for recovery.
    const Status discarded = (*session)->DiscardDurableState();
    if (!discarded.ok()) {
      COMPTX_LOG(Warn) << "discarding durable state of session "
                       << verdict.session << " failed: " << discarded;
    }
  }
  metrics_.verdict_queries.fetch_add(1, std::memory_order_relaxed);
  metrics_.verdict_latency.Record(MicrosSince(start));
  Response response = OkResponse();
  AppendVerdictFields(verdict, response);
  return response;
}

Response CertificationServer::HandleStats(const Request& request) {
  const StatusOr<bool> json = ParseStatsJson(request.options);
  if (!json.ok()) {
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return StatusResponse(json.status());
  }
  Response response = OkResponse();
  response.body = *json ? metrics_.RenderJson() : metrics_.RenderText();
  return response;
}

Response CertificationServer::HandleSubscribe(const Request& request) {
  auto session = sessions_.Find(request.session);
  if (!session.ok()) return StatusResponse(session.status());
  auto options = ParseStreamOptions(request.options);
  if (!options.ok()) {
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return StatusResponse(options.status());
  }
  // The handshake is a zero-event fetch: it validates the cursor against
  // the trimmed prefix (OutOfRange → "gap") and reports where the stream
  // currently stands, without blocking or consuming anything.
  auto result = (*session)->FetchStream(options->sub, options->from,
                                        /*max=*/0, /*wait_ms=*/0,
                                        /*ack=*/0);
  if (!result.ok()) return StatusResponse(result.status());
  if (options->from > result->watermark + 1) {
    // The subscriber believes the publisher holds events it never
    // accepted (e.g. the publisher recovered from a truncated WAL).
    // That is a configuration fault, not a transient gap.
    return ErrorResponse(
        "bad_request",
        StrCat("from=", options->from, " is past watermark ",
               result->watermark, "+1"));
  }
  Response response = OkResponse();
  response.fields.emplace_back("watermark", StrCat(result->watermark));
  response.fields.emplace_back("trimmed", StrCat(result->trimmed));
  return response;
}

Response CertificationServer::HandleStream(const Request& request) {
  auto session = sessions_.Find(request.session);
  if (!session.ok()) return StatusResponse(session.status());
  auto options = ParseStreamOptions(request.options);
  if (!options.ok()) {
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return StatusResponse(options.status());
  }
  auto result = (*session)->FetchStream(options->sub, options->from,
                                        options->max, options->wait_ms,
                                        options->ack);
  if (!result.ok()) return StatusResponse(result.status());
  metrics_.stream_fetches.fetch_add(1, std::memory_order_relaxed);
  metrics_.stream_events_published.fetch_add(result->events.size(),
                                             std::memory_order_relaxed);
  Response response = OkResponse();
  response.fields.emplace_back("from", StrCat(result->from));
  response.fields.emplace_back("count", StrCat(result->events.size()));
  response.fields.emplace_back("watermark", StrCat(result->watermark));
  response.fields.emplace_back("trimmed", StrCat(result->trimmed));
  std::string body;
  for (const workload::TraceEvent& event : result->events) {
    if (!body.empty()) body += '\n';
    body += workload::FormatTraceEvent(event);
  }
  response.body = std::move(body);
  return response;
}

void CertificationServer::SetDistributedHandler(DistributedHandler handler) {
  distributed_handler_ = std::move(handler);
}

StatusOr<std::shared_ptr<Session>> CertificationServer::FindSession(
    uint64_t id) const {
  return sessions_.Find(id);
}

Status CertificationServer::IngestRemote(
    uint64_t session, std::vector<workload::TraceEvent> events, uint64_t edge,
    uint64_t cursor_seq, const std::string& mapping) {
  COMPTX_ASSIGN_OR_RETURN(std::shared_ptr<Session> found,
                          sessions_.Find(session));
  const size_t count = events.size();
  COMPTX_RETURN_IF_ERROR(found->EnqueueIngested(
      std::move(events), edge, cursor_seq, mapping,
      [this, &found] { ScheduleSession(found); }));
  metrics_.remote_batches.fetch_add(1, std::memory_order_relaxed);
  metrics_.remote_events_ingested.fetch_add(count, std::memory_order_relaxed);
  return Status::OK();
}

StatusOr<uint64_t> CertificationServer::Open(const std::string& options) {
  Request request;
  request.kind = CommandKind::kOpen;
  request.options = options;
  const Response response = Handle(request);
  if (!response.ok) {
    return Status::Internal(
        StrCat(response.error_code, ": ", response.error_message));
  }
  return response.FieldInt("session");
}

Status CertificationServer::Append(uint64_t session,
                                   std::vector<workload::TraceEvent> events) {
  Request request;
  request.kind = CommandKind::kAppend;
  request.session = session;
  request.events = std::move(events);
  const Response response = Handle(request);
  if (!response.ok) {
    return Status::Internal(
        StrCat(response.error_code, ": ", response.error_message));
  }
  return Status::OK();
}

StatusOr<SessionVerdict> CertificationServer::VerdictCommand(
    CommandKind kind, uint64_t session) {
  Request request;
  request.kind = kind;
  request.session = session;
  const Response response = Handle(request);
  if (!response.ok) {
    return Status::Internal(
        StrCat(response.error_code, ": ", response.error_message));
  }
  return VerdictFromResponse(response);
}

StatusOr<SessionVerdict> CertificationServer::Query(uint64_t session) {
  return VerdictCommand(CommandKind::kQuery, session);
}

StatusOr<SessionVerdict> CertificationServer::Close(uint64_t session) {
  return VerdictCommand(CommandKind::kClose, session);
}

// ---- network front end ----------------------------------------------

Status CertificationServer::Listen(Endpoint& endpoint) {
  auto listener = service::Listen(endpoint);
  if (!listener.ok()) return listener.status();
  EventLoopOptions loop;
  loop.io_threads = std::max<size_t>(1, options_.io_threads);
  loop.handler_threads =
      options_.handler_threads > 0
          ? options_.handler_threads
          : std::max<size_t>(4, options_.workers);
  event_loop_ = std::make_unique<EventLoop>(
      loop, [this](const Request& request) { return Handle(request); },
      &metrics_);
  COMPTX_RETURN_IF_ERROR(event_loop_->Start(std::move(*listener)));
  COMPTX_LOG(Info) << "listening on " << endpoint.ToString() << " ("
                   << loop.io_threads << " io + " << loop.handler_threads
                   << " handler threads)";
  return Status::OK();
}

// ---- shutdown --------------------------------------------------------

bool CertificationServer::ShuttingDown() const {
  return shutting_down_.load(std::memory_order_relaxed);
}

void CertificationServer::RequestShutdown() {
  std::unique_lock<std::mutex> lock(state_mu_);
  shutting_down_.store(true, std::memory_order_relaxed);
  shutdown_cv_.notify_all();
}

void CertificationServer::WaitShutdown() {
  std::unique_lock<std::mutex> lock(state_mu_);
  shutdown_cv_.wait(lock, [this] { return ShuttingDown(); });
}

void CertificationServer::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    shutting_down_.store(true, std::memory_order_relaxed);
    shutdown_cv_.notify_all();
    if (shutdown_started_) {
      shutdown_cv_.wait(lock, [this] { return shutdown_complete_; });
      return;
    }
    shutdown_started_ = true;
    // Wait out mutating requests that passed Handle's draining check
    // before the flag flipped.  The workers are still running, so an
    // in-flight APPEND blocked on backpressure (its prefix is already
    // scheduled) and a QUERY parked in WaitDrained both finish; once the
    // count hits zero no new session or event can appear behind the
    // snapshot below.
    shutdown_cv_.wait(lock, [this] { return inflight_requests_ == 0; });
  }

  // 1. Drain every session through the still-running workers.  BeginClose
  //    fails producers blocked in backpressure, so no new events can land
  //    after the drain barrier passes.  With durability, each drained
  //    session is snapshotted (no lifecycle marker: a restart rebuilds it
  //    as live, so a graceful shutdown is indistinguishable from a crash
  //    to clients — just faster to recover).
  for (const std::shared_ptr<Session>& session : sessions_.All()) {
    session->BeginClose();
    session->WaitDrained();
    const Status persisted = session->PersistShutdown();
    if (!persisted.ok()) {
      COMPTX_LOG(Warn) << "persisting session " << session->id()
                       << " at shutdown failed: " << persisted;
    }
  }

  // 2. Stop the ticker.
  {
    std::unique_lock<std::mutex> lock(ticker_mu_);
    stop_ticker_ = true;
    ticker_cv_.notify_all();
  }
  if (ticker_.joinable()) ticker_.join();

  // 3. Stop the workers (their run queue is empty after the drain).
  {
    std::unique_lock<std::mutex> lock(run_mu_);
    stop_workers_ = true;
    run_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }

  // 4. Tear down the network.  EventLoop::Stop is graceful: it stops
  //    accepting and reading, lets the handler pool answer every request
  //    already decoded (in particular the SHUTDOWN OK that triggered this
  //    teardown), flushes buffered responses with a bounded deadline, and
  //    only then closes the descriptors.  Requests refused during the
  //    drain above got shutting_down errors through the same path.
  if (event_loop_ != nullptr) event_loop_->Stop();

  {
    std::unique_lock<std::mutex> lock(state_mu_);
    shutdown_complete_ = true;
    shutdown_cv_.notify_all();
  }
  COMPTX_LOG(Info) << "shut down cleanly; " << metrics_.RenderLine();
}

}  // namespace comptx::service
