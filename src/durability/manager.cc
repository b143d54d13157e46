#include "durability/manager.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "online/state_io.h"
#include "util/logging.h"

namespace comptx::durability {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// SessionLog

SessionLog::SessionLog(Manager* manager, uint64_t id, std::string options_text)
    : manager_(manager), id_(id), options_text_(std::move(options_text)) {}

SessionLog::~SessionLog() = default;

Status SessionLog::LogAppend(const std::vector<workload::TraceEvent>& events) {
  // One APPEND record per batch, commit_through watermarks included:
  // every event consumes one seq slot, keeping WAL order identical to
  // queue/ingest order.
  if (events.empty()) return Status::OK();
  WalRecord record;
  record.type = WalRecordType::kAppend;
  record.seq = logged_.load(std::memory_order_relaxed) + 1;
  record.events = events;
  COMPTX_RETURN_IF_ERROR(writer_->Append(record).status());
  logged_.fetch_add(events.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status SessionLog::LogStreamCursor(uint64_t edge, uint64_t cursor_seq,
                                   const std::string& mapping) {
  WalRecord record;
  record.type = WalRecordType::kStreamCursor;
  record.seq = logged_.load(std::memory_order_relaxed);
  record.edge = edge;
  record.cursor_seq = cursor_seq;
  record.mapping = mapping;
  return writer_->Append(record).status();
}

void SessionLog::SetSnapshotExempt() {
  snapshot_exempt_.store(true, std::memory_order_relaxed);
}

Status SessionLog::SyncForAck() { return writer_->SyncForAck(); }

void SessionLog::OnIngested(size_t n) {
  ingested_.fetch_add(n, std::memory_order_relaxed);
}

bool SessionLog::SnapshotDue() const {
  if (snapshot_exempt_.load(std::memory_order_relaxed)) return false;
  const uint64_t interval = manager_->options().snapshot_events;
  if (interval == 0) return false;
  return ingested_.load(std::memory_order_relaxed) -
             snapshotted_.load(std::memory_order_relaxed) >=
         interval;
}

Status SessionLog::WriteSnapshot(const online::Certifier& certifier) {
  Snapshot snapshot;
  snapshot.session_id = id_;
  // The caller guarantees no concurrent ingest, so the certifier holds
  // exactly the first `ingested_` events of the stream.
  snapshot.event_seq = ingested_.load(std::memory_order_relaxed);
  snapshot.options = options_text_;
  COMPTX_ASSIGN_OR_RETURN(snapshot.state,
                          online::CaptureCertifierState(certifier));
  COMPTX_RETURN_IF_ERROR(WriteSnapshotFile(
      SnapshotPath(manager_->options().dir, id_), snapshot));
  if (manager_->counters() != nullptr) {
    manager_->counters()->snapshots_written.fetch_add(
        1, std::memory_order_relaxed);
  }

  WalRecord open;
  open.type = WalRecordType::kOpen;
  open.options = options_text_;
  WalRecord seal;
  seal.type = WalRecordType::kSeal;
  seal.seq = snapshot.event_seq;
  seal.accepted = snapshot.state.accepted;
  seal.rejected = snapshot.state.rejected;
  seal.certifiable = snapshot.state.certifiable;
  COMPTX_RETURN_IF_ERROR(
      writer_->CompactThrough(snapshot.event_seq, open, seal));
  snapshotted_.store(snapshot.event_seq, std::memory_order_relaxed);
  return Status::OK();
}

Status SessionLog::PersistEvicted(const online::Certifier& certifier) {
  if (!snapshot_exempt_.load(std::memory_order_relaxed)) {
    COMPTX_RETURN_IF_ERROR(WriteSnapshot(certifier));
  }
  WalRecord record;
  record.type = WalRecordType::kEvict;
  record.seq = ingested_.load(std::memory_order_relaxed);
  COMPTX_RETURN_IF_ERROR(writer_->Append(record).status());
  return writer_->SyncNow();
}

Status SessionLog::PersistShutdown(const online::Certifier& certifier) {
  if (!snapshot_exempt_.load(std::memory_order_relaxed)) {
    COMPTX_RETURN_IF_ERROR(WriteSnapshot(certifier));
  }
  return writer_->SyncNow();
}

Status SessionLog::MarkClosedAndRemove() {
  WalRecord record;
  record.type = WalRecordType::kClose;
  record.seq = ingested_.load(std::memory_order_relaxed);
  COMPTX_RETURN_IF_ERROR(writer_->Append(record).status());
  COMPTX_RETURN_IF_ERROR(writer_->SyncNow());
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    writer_.reset();
  }
  return manager_->RemoveFiles(id_);
}

Status SessionLog::SyncIfDirty() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (writer_ == nullptr) return Status::OK();
  return writer_->SyncNow();
}

// ---------------------------------------------------------------------------
// Manager

Manager::Manager(const Options& options, Counters* counters)
    : options_(options), counters_(counters) {}

StatusOr<std::unique_ptr<Manager>> Manager::Start(const Options& options,
                                                  Counters* counters) {
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create durability dir " + options.dir +
                            ": " + ec.message());
  }
  std::unique_ptr<Manager> manager(new Manager(options, counters));
  if (options.fsync == FsyncPolicy::kInterval) {
    manager->flusher_ = std::thread([m = manager.get()] { m->FlusherLoop(); });
  }
  return manager;
}

Manager::~Manager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void Manager::Register(const std::shared_ptr<SessionLog>& log) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.erase(std::remove_if(logs_.begin(), logs_.end(),
                             [](const std::weak_ptr<SessionLog>& weak) {
                               return weak.expired();
                             }),
              logs_.end());
  logs_.push_back(log);
}

void Manager::FlusherLoop() {
  for (;;) {
    std::vector<std::shared_ptr<SessionLog>> live;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock,
                   std::chrono::milliseconds(options_.fsync_interval_ms),
                   [this] { return stopping_; });
      if (stopping_) return;
      live.reserve(logs_.size());
      for (const auto& weak : logs_) {
        if (auto log = weak.lock()) live.push_back(std::move(log));
      }
    }
    for (const auto& log : live) {
      const Status status = log->SyncIfDirty();
      if (!status.ok()) {
        COMPTX_LOG(Warn) << "interval fsync of session " << log->id()
                         << " failed: " << status;
      }
    }
  }
}

StatusOr<std::shared_ptr<SessionLog>> Manager::CreateLog(
    uint64_t id, const std::string& options_text) {
  std::shared_ptr<SessionLog> log(new SessionLog(this, id, options_text));
  COMPTX_ASSIGN_OR_RETURN(
      log->writer_, WalWriter::Create(WalPath(options_.dir, id),
                                      options_.fsync, counters_));
  WalRecord open;
  open.type = WalRecordType::kOpen;
  open.options = options_text;
  COMPTX_RETURN_IF_ERROR(log->writer_->Append(open).status());
  // Session existence is durable before the OPEN ack under every policy:
  // one fsync per session lifetime is noise, and it pins the id so a
  // crashed-then-restarted server never reassigns it.
  COMPTX_RETURN_IF_ERROR(log->writer_->SyncNow());
  Register(log);
  return log;
}

StatusOr<std::shared_ptr<SessionLog>> Manager::AdoptLog(
    const SessionDurableState& state, bool resume) {
  std::shared_ptr<SessionLog> log(
      new SessionLog(this, state.id, state.options));
  const std::string wal_path = WalPath(options_.dir, state.id);
  if (state.wal_missing) {
    COMPTX_ASSIGN_OR_RETURN(
        log->writer_, WalWriter::Create(wal_path, options_.fsync, counters_));
    WalRecord open;
    open.type = WalRecordType::kOpen;
    open.options = state.options;
    COMPTX_RETURN_IF_ERROR(log->writer_->Append(open).status());
  } else {
    if (!state.wal_scan.clean) {
      COMPTX_RETURN_IF_ERROR(RepairWalFile(wal_path, state.wal_scan));
      if (counters_ != nullptr) {
        counters_->records_truncated.fetch_add(1, std::memory_order_relaxed);
      }
    }
    WalReadResult repaired = state.wal_scan;
    repaired.clean = true;
    COMPTX_ASSIGN_OR_RETURN(
        log->writer_, WalWriter::OpenExisting(wal_path, options_.fsync,
                                              counters_, repaired));
  }
  log->logged_.store(state.event_seq, std::memory_order_relaxed);
  log->ingested_.store(state.event_seq, std::memory_order_relaxed);
  log->snapshotted_.store(
      state.has_snapshot ? state.snapshot.event_seq : 0,
      std::memory_order_relaxed);
  if (resume) {
    WalRecord marker;
    marker.type = WalRecordType::kResume;
    marker.seq = state.event_seq;
    COMPTX_RETURN_IF_ERROR(log->writer_->Append(marker).status());
    COMPTX_RETURN_IF_ERROR(log->writer_->SyncNow());
  }
  Register(log);
  return log;
}

}  // namespace comptx::durability
