#include "service/session_manager.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace comptx::service {

namespace {

const char* StepName(online::OnlineFailure::Step step) {
  switch (step) {
    case online::OnlineFailure::Step::kCalculation:
      return "calculation";
    case online::OnlineFailure::Step::kConflictConsistency:
      return "conflict consistency";
  }
  return "?";
}

StatusOr<bool> ParseBool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  return Status::InvalidArgument(
      StrCat("option ", key, " needs 0/1/true/false, got '", value, "'"));
}

}  // namespace

StatusOr<SessionOptions> ParseSessionOptions(const std::string& text,
                                             const SessionOptions& defaults) {
  SessionOptions options = defaults;
  COMPTX_ASSIGN_OR_RETURN(std::vector<KeyValue> tokens,
                          ParseKeyValues(text, "OPEN option"));
  for (const auto& [key, value] : tokens) {
    if (key == "forgetting") {
      COMPTX_ASSIGN_OR_RETURN(options.certifier.forgetting,
                              ParseBool(key, value));
    } else if (key == "auto_prune") {
      COMPTX_ASSIGN_OR_RETURN(options.certifier.auto_prune,
                              ParseBool(key, value));
    } else if (key == "queue_capacity") {
      COMPTX_ASSIGN_OR_RETURN(uint64_t parsed, ParseUint64(key, value));
      if (parsed == 0) {
        return Status::InvalidArgument("queue_capacity must be positive");
      }
      options.queue_capacity = static_cast<size_t>(parsed);
    } else if (key == "static_admission" || key == "paranoid") {
      // Retired modes (same verdicts): ignored, so old data dirs recover.
      COMPTX_RETURN_IF_ERROR(ParseBool(key, value).status());
    } else if (key == "epoch_interval") {
      // Retired: sessions prune on commit.  Old OPEN records carry it.
      COMPTX_ASSIGN_OR_RETURN(uint64_t parsed, ParseUint64(key, value));
      if (parsed > UINT32_MAX) {
        return Status::InvalidArgument(
            StrCat("epoch_interval ", parsed, " exceeds ", UINT32_MAX));
      }
    } else if (key == "resume") {
      COMPTX_ASSIGN_OR_RETURN(options.resume, ParseUint64(key, value));
      if (options.resume == 0) {
        return Status::InvalidArgument("resume needs a session id");
      }
    } else if (key == "stream") {
      COMPTX_ASSIGN_OR_RETURN(options.stream, ParseBool(key, value));
    } else {
      return Status::InvalidArgument(StrCat("unknown OPEN option '", key, "'"));
    }
  }
  return options;
}

Session::Session(uint64_t id, const SessionOptions& options,
                 ServiceMetrics* metrics,
                 std::shared_ptr<durability::SessionLog> log)
    : Session(id, options, metrics, std::move(log),
              std::make_unique<online::Certifier>(options.certifier)) {}

Session::Session(uint64_t id, const SessionOptions& options,
                 ServiceMetrics* metrics,
                 std::shared_ptr<durability::SessionLog> log,
                 std::unique_ptr<online::Certifier> certifier)
    : id_(id),
      queue_capacity_(options.queue_capacity),
      stream_enabled_(options.stream),
      metrics_(metrics),
      certifier_(std::move(certifier)),
      log_(std::move(log)),
      last_activity_(std::chrono::steady_clock::now()) {
  // A stream session's WAL is its subscribers' resync source: exempt it
  // from snapshot+compaction so the full history survives on disk.
  if (stream_enabled_ && log_ != nullptr) log_->SetSnapshotExempt();
}

void Session::ScheduleLocked(const std::function<void()>& schedule) {
  if (scheduled_ || queue_.empty()) return;
  scheduled_ = true;
  // Invoked under mu_: the run queue's run_mu_ is a leaf lock (workers
  // release it before calling ProcessBatch), so mu_ -> run_mu_ is the
  // only nesting order and cannot deadlock.
  schedule();
}

Status Session::Enqueue(std::vector<workload::TraceEvent> events,
                        const std::function<void()>& schedule) {
  return EnqueueInternal(std::move(events), nullptr, schedule);
}

Status Session::EnqueueIngested(std::vector<workload::TraceEvent> events,
                                uint64_t edge, uint64_t cursor_seq,
                                const std::string& mapping,
                                const std::function<void()>& schedule) {
  const StreamCursorRecord cursor{edge, cursor_seq, &mapping};
  return EnqueueInternal(std::move(events), &cursor, schedule);
}

Status Session::EnqueueInternal(std::vector<workload::TraceEvent> events,
                                const StreamCursorRecord* cursor,
                                const std::function<void()>& schedule) {
  // Whole-batch serialization: holding append_mu_ across the entire call
  // (including backpressure waits) keeps WAL record order identical to
  // queue order, so recovery replay reproduces the ingest stream.  The
  // drain worker never takes append_mu_, so producers blocked here do not
  // stall the drain that frees their space.
  std::lock_guard<std::mutex> append_lock(append_mu_);
  if (log_ != nullptr) {
    {
      // Log-then-push, but never log into a closing session: after CLOSE
      // the WAL gains its CLOSE marker and the files are removed, so a
      // late append must fail before touching the writer.
      std::unique_lock<std::mutex> lock(mu_);
      if (closing_) {
        return Status::FailedPrecondition(
            StrCat("session ", id_, " is closing"));
      }
    }
    // Events are durable (after SyncForAck below) *before* the client
    // sees the ack.  A crash between here and the ack over-persists the
    // batch — harmless: recovery replays it once and a resuming client
    // continues from the recovered event count.
    COMPTX_RETURN_IF_ERROR(log_->LogAppend(events));
    if (cursor != nullptr) {
      // Events first, cursor second: a crash in between re-fetches the
      // batch from the upstream (deduplicated on arrival) — the reverse
      // order would durably skip events that never landed.
      COMPTX_RETURN_IF_ERROR(log_->LogStreamCursor(
          cursor->edge, cursor->cursor_seq, *cursor->mapping));
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  last_activity_ = std::chrono::steady_clock::now();
  for (workload::TraceEvent& event : events) {
    while (queue_.size() >= queue_capacity_ && !closing_) {
      // Hand the already-pushed prefix to a worker before blocking for
      // space: a batch larger than the queue capacity would otherwise
      // fill an idle (never-scheduled) session and wait forever for a
      // drain that no worker was asked to perform.
      ScheduleLocked(schedule);
      metrics_->backpressure_waits.fetch_add(1, std::memory_order_relaxed);
      space_cv_.wait(lock);
    }
    if (closing_) {
      return Status::FailedPrecondition(
          StrCat("session ", id_, " is closing"));
    }
    queue_.push_back(std::move(event));
    metrics_->events_enqueued.fetch_add(1, std::memory_order_relaxed);
    metrics_->queue_depth.fetch_add(1, std::memory_order_relaxed);
  }
  ScheduleLocked(schedule);
  last_activity_ = std::chrono::steady_clock::now();
  lock.unlock();
  // The group-commit ack barrier (fsync under the `always` policy).  Done
  // outside mu_ so the drain worker and other producers keep moving, but
  // inside append_mu_ — the ordering guarantee costs nothing extra here
  // because concurrent ackers still share one fsync via the writer.
  if (log_ != nullptr) COMPTX_RETURN_IF_ERROR(log_->SyncForAck());
  return Status::OK();
}

bool Session::ProcessBatch(size_t max_events) {
  std::vector<workload::TraceEvent> batch;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const size_t take = std::min(max_events, queue_.size());
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }

  // Ingest outside the session lock: the scheduled_ flag guarantees this
  // is the only worker draining, so stream order is preserved, and
  // producers keep enqueueing (into the freed capacity) concurrently.
  // The whole drain goes through IngestBatch — one certifier lock hold,
  // one Pearce-Kelly maintenance window, one prune pass per batch.
  std::vector<Status> statuses;
  const uint64_t rejected =
      certifier_->IngestBatch(batch, stream_enabled_ ? &statuses : nullptr);
  if (stream_enabled_) {
    // Publish the accepted subsequence to the stream log.  Commits are
    // excluded: commit decisions flow *down* the topology via PREPARE/
    // DECIDE, never up, so the stream carries exactly the pulled-up
    // observed orders and effective-conflict structure.
    std::lock_guard<std::mutex> stream_lock(stream_mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!statuses[i].ok()) continue;
      if (batch[i].kind == workload::TraceEventKind::kCommit ||
          batch[i].kind == workload::TraceEventKind::kCommitThrough) {
        continue;
      }
      stream_log_.push_back(batch[i]);
    }
    stream_cv_.notify_all();
  }
  // events_processed counts only successful ingests, so the invariant
  // events_enqueued == events_processed + events_rejected holds once
  // every queue drains.
  metrics_->events_processed.fetch_add(batch.size() - rejected,
                                       std::memory_order_relaxed);
  if (rejected > 0) {
    metrics_->events_rejected.fetch_add(rejected, std::memory_order_relaxed);
  }
  metrics_->queue_depth.fetch_sub(static_cast<int64_t>(batch.size()),
                                  std::memory_order_relaxed);

  if (log_ != nullptr && !batch.empty()) {
    log_->OnIngested(batch.size());
    if (log_->SnapshotDue()) {
      // Snapshotting here is safe: the scheduled_ flag makes this worker
      // the certifier's only writer, so the capture sees a quiescent
      // image covering exactly the ingested prefix.  Failure is logged,
      // not fatal — the WAL alone still recovers the session.
      const Status snapshot = log_->WriteSnapshot(*certifier_);
      if (!snapshot.ok()) {
        COMPTX_LOG(Warn) << "snapshot of session " << id_
                         << " failed: " << snapshot;
      }
    }
  }

  // Still the certifier's sole writer here (the scheduled_ flag is not
  // released until below), so the stat publication cannot race another
  // publisher.
  PublishCertifierStats();

  std::unique_lock<std::mutex> lock(mu_);
  space_cv_.notify_all();
  if (queue_.empty()) {
    scheduled_ = false;
    drain_cv_.notify_all();
    return false;
  }
  return true;
}

void Session::PublishCertifierStats() {
  const online::CertifierStats stats = certifier_->Stats();
  metrics_->certifier_live_nodes.fetch_add(
      static_cast<int64_t>(stats.live_nodes) -
          static_cast<int64_t>(published_stats_.live_nodes),
      std::memory_order_relaxed);
  metrics_->certifier_prune_passes.fetch_add(
      stats.prune_passes - published_stats_.prune_passes,
      std::memory_order_relaxed);
  metrics_->certifier_pruned_nodes.fetch_add(
      stats.pruned_nodes - published_stats_.pruned_nodes,
      std::memory_order_relaxed);
  published_stats_ = stats;
}

void Session::RetireCertifierStats() {
  metrics_->certifier_live_nodes.fetch_sub(
      static_cast<int64_t>(published_stats_.live_nodes),
      std::memory_order_relaxed);
  published_stats_.live_nodes = 0;
}

void Session::WaitDrained() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && !scheduled_; });
  last_activity_ = std::chrono::steady_clock::now();
}

void Session::BeginClose() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    closing_ = true;
    space_cv_.notify_all();
  }
  std::lock_guard<std::mutex> stream_lock(stream_mu_);
  closing_stream_ = true;
  stream_cv_.notify_all();
}

Status Session::PersistEvicted() {
  if (log_ == nullptr) return Status::OK();
  return log_->PersistEvicted(*certifier_);
}

Status Session::PersistShutdown() {
  if (log_ == nullptr) return Status::OK();
  return log_->PersistShutdown(*certifier_);
}

Status Session::DiscardDurableState() {
  if (log_ == nullptr) return Status::OK();
  // Serializes with any producer still inside Enqueue: once we hold
  // append_mu_ the producer either finished logging (its events drained
  // before our caller's WaitDrained returned, or they sit in the WAL the
  // CLOSE marker now supersedes) or it has not logged yet and will see
  // closing_ first.
  std::lock_guard<std::mutex> append_lock(append_mu_);
  return log_->MarkClosedAndRemove();
}

SessionVerdict Session::Verdict() const {
  const online::CertifierVerdict verdict = certifier_->Verdict();
  const online::CertifierStats stats = certifier_->Stats();
  SessionVerdict out;
  out.session = id_;
  out.certifiable = verdict.certifiable;
  out.order = verdict.order;
  out.events_accepted = stats.events_accepted;
  out.events_rejected = stats.events_rejected;
  out.live_nodes = stats.live_nodes;
  out.pruned_nodes = stats.pruned_nodes;
  out.sealed_roots = stats.sealed_roots;
  out.commit_watermark = stats.commit_watermark;
  out.window_span = stats.window_span;
  if (!verdict.certifiable && verdict.failure.has_value()) {
    out.failure = StrCat("level ", verdict.failure->level, " ",
                         StepName(verdict.failure->step), ": ",
                         verdict.failure->description);
  }
  return out;
}

bool Session::CloseIfIdle(std::chrono::steady_clock::time_point cutoff) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!queue_.empty() || scheduled_ || closing_ || last_activity_ >= cutoff) {
    return false;
  }
  // Checking idleness and flipping closing_ under one hold of mu_ means a
  // producer that already looked the session up either beat us (the
  // queue is non-empty and we bail) or sees closing_ and fails — never
  // an acknowledged enqueue into an evicted session.
  closing_ = true;
  space_cv_.notify_all();
  lock.unlock();
  std::lock_guard<std::mutex> stream_lock(stream_mu_);
  closing_stream_ = true;
  stream_cv_.notify_all();
  return true;
}

StatusOr<StreamFetchResult> Session::FetchStream(uint64_t sub, uint64_t from,
                                                 uint64_t max,
                                                 uint64_t wait_ms,
                                                 uint64_t ack) {
  if (!stream_enabled_) {
    return Status::FailedPrecondition(
        StrCat("session ", id_, " is not a stream session (open stream=1)"));
  }
  if (from == 0) {
    return Status::InvalidArgument("stream seqs are 1-based; from=0");
  }
  std::unique_lock<std::mutex> lock(stream_mu_);
  if (sub != 0) {
    uint64_t& acked = stream_acks_[sub];
    acked = std::max(acked, ack);
    // Trim through the minimum ack: every subscriber has durably applied
    // that prefix, so the WAL alone covers any future resubscribe below
    // it (which, by the ack invariant, never happens).
    uint64_t min_ack = ~0ull;
    for (const auto& [s, a] : stream_acks_) min_ack = std::min(min_ack, a);
    if (min_ack != ~0ull && min_ack > stream_base_) {
      const uint64_t watermark = stream_base_ + stream_log_.size();
      const uint64_t trim_to = std::min(min_ack, watermark);
      stream_log_.erase(stream_log_.begin(),
                        stream_log_.begin() + (trim_to - stream_base_));
      stream_base_ = trim_to;
    }
  }
  if (from <= stream_base_) {
    return Status::OutOfRange(
        StrCat("stream trimmed through ", stream_base_, "; cannot fetch ",
               from, " (resubscribe from the durable cursor)"));
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_ms);
  while (stream_base_ + stream_log_.size() < from && !closing_stream_) {
    if (wait_ms == 0 ||
        stream_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  StreamFetchResult result;
  result.from = from;
  result.trimmed = stream_base_;
  result.watermark = stream_base_ + stream_log_.size();
  const uint64_t start = from - stream_base_ - 1;  // index into the log
  for (uint64_t i = start; i < stream_log_.size() && result.events.size() < max;
       ++i) {
    result.events.push_back(stream_log_[i]);
  }
  return result;
}

uint64_t Session::StreamWatermark() const {
  std::lock_guard<std::mutex> lock(stream_mu_);
  return stream_base_ + stream_log_.size();
}

void Session::AdoptStreamLog(std::vector<workload::TraceEvent> events) {
  std::lock_guard<std::mutex> lock(stream_mu_);
  stream_base_ = 0;
  stream_log_ = std::move(events);
}

SessionManager::SessionManager(size_t max_sessions, ServiceMetrics* metrics,
                               durability::Manager* durability)
    : max_sessions_(max_sessions),
      metrics_(metrics),
      durability_(durability) {}

Status SessionManager::ReserveLocked(uint64_t id) {
  if (sessions_.count(id) > 0 || reserved_.count(id) > 0) {
    return Status::AlreadyExists(StrCat(
        "session ", id,
        " is already open (or still being opened, resumed or evicted)"));
  }
  if (sessions_.size() + reserved_.size() >= max_sessions_) {
    return Status::ResourceExhausted(
        StrCat("session limit of ", max_sessions_, " reached"));
  }
  reserved_.insert(id);
  return Status::OK();
}

void SessionManager::Publish(uint64_t id, std::shared_ptr<Session> session) {
  std::lock_guard<std::mutex> lock(mu_);
  reserved_.erase(id);
  if (session != nullptr) sessions_.emplace(id, std::move(session));
}

StatusOr<std::shared_ptr<Session>> SessionManager::Open(
    const SessionOptions& options, const std::string& options_text) {
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    COMPTX_RETURN_IF_ERROR(ReserveLocked(next_id_));
    id = next_id_++;
  }
  std::shared_ptr<durability::SessionLog> log;
  if (durability_ != nullptr) {
    // One file creation + fsync per session lifetime, outside the table
    // lock: the reserved id names nothing else until Publish.
    auto created = durability_->CreateLog(id, options_text);
    if (!created.ok()) {
      Publish(id, nullptr);
      return created.status();
    }
    log = std::move(*created);
  }
  auto session =
      std::make_shared<Session>(id, options, metrics_, std::move(log));
  Publish(id, session);
  metrics_->sessions_opened.fetch_add(1, std::memory_order_relaxed);
  metrics_->active_sessions.fetch_add(1, std::memory_order_relaxed);
  return session;
}

StatusOr<std::shared_ptr<Session>> SessionManager::Restore(
    const durability::SessionDurableState& state, const SessionOptions& options,
    bool resume, bool verify) {
  std::vector<workload::TraceEvent> accepted_stream;
  COMPTX_ASSIGN_OR_RETURN(
      auto certifier,
      durability::RebuildCertifier(state, options.certifier,
                                   options.stream ? &accepted_stream
                                                  : nullptr));
  if (verify) {
    const Status verdict =
        durability::VerifyRecovery(*certifier, state.event_seq);
    if (!verdict.ok()) {
      metrics_->durability.recovery_mismatches.fetch_add(
          1, std::memory_order_relaxed);
      return Status::Internal(StrCat("session ", state.id, ": ",
                                     verdict.message()));
    }
  }
  COMPTX_ASSIGN_OR_RETURN(auto log, durability_->AdoptLog(state, resume));
  auto session = std::make_shared<Session>(
      state.id, options, metrics_, std::move(log), std::move(certifier));
  if (options.stream) {
    // Stream sessions never snapshot, so the replayed history is complete
    // and the rebuilt log reproduces the pre-crash sequence numbers —
    // subscribers resume from their durable cursors without a gap.
    session->AdoptStreamLog(std::move(accepted_stream));
  }

  // Recovered events re-enter the pipeline counters on all three sides at
  // once, so the invariant enqueued == processed + rejected holds across
  // a restart (and across a same-process evict/resume cycle, where the
  // events are counted again — counters are cumulative, not a census).
  const SessionVerdict verdict = session->Verdict();
  metrics_->events_enqueued.fetch_add(
      verdict.events_accepted + verdict.events_rejected,
      std::memory_order_relaxed);
  metrics_->events_processed.fetch_add(verdict.events_accepted,
                                       std::memory_order_relaxed);
  metrics_->events_rejected.fetch_add(verdict.events_rejected,
                                      std::memory_order_relaxed);
  metrics_->active_sessions.fetch_add(1, std::memory_order_relaxed);
  metrics_->durability.sessions_recovered.fetch_add(1,
                                                    std::memory_order_relaxed);
  metrics_->durability.recovered_events.fetch_add(
      verdict.events_accepted + verdict.events_rejected,
      std::memory_order_relaxed);
  // Safe pre-publication: no worker is attached to a session that is not
  // yet visible to the run queue.
  session->PublishCertifierStats();
  return session;
}

StatusOr<std::shared_ptr<Session>> SessionManager::Resume(
    uint64_t resume_id, const SessionOptions& request,
    const SessionOptions& defaults) {
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "resume requires a durability directory (--data-dir)");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Every id with files on disk is below next_id_: an OPEN assigned it
    // or startup recovery found it.  So a reserved id never collides
    // with the id the next OPEN takes.
    if (resume_id >= next_id_) {
      return Status::NotFound(StrCat("session ", resume_id,
                                     " was never opened; nothing to resume"));
    }
    // The reservation makes a second resume of the same id fail with
    // AlreadyExists while this one reads and rebuilds off the lock.
    COMPTX_RETURN_IF_ERROR(ReserveLocked(resume_id));
  }
  auto restored = [&]() -> StatusOr<std::shared_ptr<Session>> {
    auto state = durability_->ReadState(resume_id);
    if (!state.ok()) return state.status();
    if (state->closed || state->Empty()) {
      return Status::NotFound(StrCat("session ", resume_id,
                                     " was closed; nothing to resume"));
    }
    // The certifier configuration is part of the stream's meaning, so it
    // comes from the stored OPEN options; only the queue knob follows the
    // resuming client's request.
    COMPTX_ASSIGN_OR_RETURN(SessionOptions options,
                            ParseSessionOptions(state->options, defaults));
    options.queue_capacity = request.queue_capacity;
    return Restore(*state, options, /*resume=*/true,
                   durability_->options().verify_recovery);
  }();
  Publish(resume_id, restored.ok() ? *restored : nullptr);
  return restored;
}

StatusOr<size_t> SessionManager::RecoverAll(const SessionOptions& defaults,
                                            bool verify) {
  if (durability_ == nullptr) return 0;
  size_t recovered = 0;
  for (const uint64_t id : durability_->ListSessionIds()) {
    COMPTX_ASSIGN_OR_RETURN(durability::SessionDurableState state,
                            durability_->ReadState(id));
    if (state.closed || state.Empty()) {
      // CLOSE was acked (or nothing durable ever landed): finish the
      // interrupted unlink.
      COMPTX_RETURN_IF_ERROR(durability_->RemoveFiles(id));
      continue;
    }
    {
      // Never reassign an id that still names on-disk state.
      std::lock_guard<std::mutex> lock(mu_);
      next_id_ = std::max(next_id_, id + 1);
    }
    if (state.evicted) continue;  // stays on disk until a resume=<id> OPEN
    COMPTX_ASSIGN_OR_RETURN(SessionOptions options,
                            ParseSessionOptions(state.options, defaults));
    {
      std::lock_guard<std::mutex> lock(mu_);
      COMPTX_RETURN_IF_ERROR(ReserveLocked(id));
    }
    auto restored = Restore(state, options, /*resume=*/false, verify);
    Publish(id, restored.ok() ? *restored : nullptr);
    if (!restored.ok()) return restored.status();
    ++recovered;
  }
  return recovered;
}

StatusOr<std::shared_ptr<Session>> SessionManager::Find(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound(StrCat("no session ", id));
  }
  return it->second;
}

StatusOr<std::shared_ptr<Session>> SessionManager::Remove(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound(StrCat("no session ", id));
  }
  std::shared_ptr<Session> session = std::move(it->second);
  sessions_.erase(it);
  metrics_->sessions_closed.fetch_add(1, std::memory_order_relaxed);
  metrics_->active_sessions.fetch_sub(1, std::memory_order_relaxed);
  return session;
}

std::vector<std::shared_ptr<Session>> SessionManager::EvictIdle(
    std::chrono::steady_clock::time_point cutoff) {
  std::lock_guard<std::mutex> sweep_lock(evict_mu_);
  std::vector<std::shared_ptr<Session>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->CloseIfIdle(cutoff)) {
        evicted.push_back(it->second);
        reserved_.insert(it->first);
        it = sessions_.erase(it);
        metrics_->sessions_evicted.fetch_add(1, std::memory_order_relaxed);
        metrics_->active_sessions.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
  for (const std::shared_ptr<Session>& session : evicted) {
    // Persist-then-release, off the table lock: CloseIfIdle only fires on
    // a drained session and marked it closing, so the certifier is
    // quiescent and no event can land between the snapshot and the EVICT
    // marker.  The id stays reserved until the marker is written, so a
    // resume=<id> racing the sweep gets AlreadyExists instead of
    // adopting a log this thread is still writing.
    const Status persisted = session->PersistEvicted();
    if (!persisted.ok()) {
      COMPTX_LOG(Warn) << "persisting evicted session " << session->id()
                       << " failed: " << persisted;
    }
    session->RetireCertifierStats();
    Publish(session->id(), nullptr);
  }
  return evicted;
}

std::vector<std::shared_ptr<Session>> SessionManager::All() const {
  std::vector<std::shared_ptr<Session>> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, session] : sessions_) all.push_back(session);
  return all;
}

size_t SessionManager::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace comptx::service
