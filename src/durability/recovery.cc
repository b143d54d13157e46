#include "durability/recovery.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/correctness.h"
#include "online/state_io.h"
#include "workload/trace.h"

namespace comptx::durability {

namespace fs = std::filesystem;

std::string WalPath(const std::string& dir, uint64_t id) {
  return dir + "/s" + std::to_string(id) + ".wal";
}

std::string SnapshotPath(const std::string& dir, uint64_t id) {
  return dir + "/s" + std::to_string(id) + ".snap";
}

std::vector<workload::TraceEvent> SessionDurableState::SuffixEvents() const {
  const uint64_t base = has_snapshot ? snapshot.event_seq : 0;
  std::vector<workload::TraceEvent> events;
  for (const auto& record : wal_records) {
    if (record.type != WalRecordType::kAppend) continue;
    for (size_t i = 0; i < record.events.size(); ++i) {
      const uint64_t seq = record.seq + i;
      if (seq > base) events.push_back(record.events[i]);
    }
  }
  return events;
}

std::vector<uint64_t> ListDurableSessionIds(const std::string& dir) {
  std::vector<uint64_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const bool wal = name.size() > 5 && name.compare(name.size() - 4, 4, ".wal") == 0;
    const bool snap = name.size() > 6 && name.compare(name.size() - 5, 5, ".snap") == 0;
    if ((!wal && !snap) || name[0] != 's') continue;
    const std::string digits =
        name.substr(1, name.size() - 1 - (wal ? 4 : 5));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    ids.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

StatusOr<SessionDurableState> ReadSessionDurableState(const std::string& dir,
                                                      uint64_t id) {
  SessionDurableState state;
  state.id = id;
  state.dir = dir;

  auto snapshot = ReadSnapshotFile(SnapshotPath(dir, id));
  if (snapshot.ok()) {
    if (snapshot->session_id != id) {
      return Status::Internal("snapshot " + SnapshotPath(dir, id) +
                              " claims session " +
                              std::to_string(snapshot->session_id));
    }
    state.has_snapshot = true;
    state.snapshot = std::move(snapshot).value();
    state.options = state.snapshot.options;
    state.event_seq = state.snapshot.event_seq;
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }

  auto scan = ReadWalFile(WalPath(dir, id));
  if (scan.ok()) {
    state.wal_scan = std::move(scan).value();
    state.wal_records = state.wal_scan.records;
    for (const auto& record : state.wal_records) {
      switch (record.type) {
        case WalRecordType::kOpen:
          if (state.options.empty()) state.options = record.options;
          break;
        case WalRecordType::kAppend:
          if (!record.events.empty()) {
            state.event_seq = std::max(
                state.event_seq, record.seq + record.events.size() - 1);
          }
          break;
        case WalRecordType::kEvict:
          state.evicted = true;
          break;
        case WalRecordType::kResume:
          state.evicted = false;
          break;
        case WalRecordType::kClose:
          state.closed = true;
          break;
        case WalRecordType::kSeal:
        case WalRecordType::kStreamCursor:
          // Cursor records do not consume event seq slots; the
          // distributed layer folds them out of wal_records itself.
          break;
      }
    }
  } else if (scan.status().code() == StatusCode::kNotFound) {
    state.wal_missing = true;
    if (!state.has_snapshot) {
      return Status::NotFound("no durable state for session " +
                              std::to_string(id) + " in " + dir);
    }
  } else {
    // Bad magic: a crash can leave a zero-length or header-torn file
    // behind (the header write itself is not synced).  With a snapshot
    // the session is still fully recoverable; without one there was
    // nothing durable to lose.
    state.wal_missing = true;
  }
  return state;
}

Status RemoveSessionFiles(const std::string& dir, uint64_t id) {
  std::error_code ec;
  fs::remove(WalPath(dir, id), ec);
  fs::remove(SnapshotPath(dir, id), ec);
  return Status::OK();
}

StatusOr<std::unique_ptr<online::Certifier>> RebuildCertifier(
    const SessionDurableState& state, const online::CertifierOptions& options,
    std::vector<workload::TraceEvent>* accepted_stream) {
  std::unique_ptr<online::Certifier> certifier;
  if (state.has_snapshot) {
    COMPTX_ASSIGN_OR_RETURN(
        certifier, online::RestoreCertifierState(state.snapshot.state, options));
  } else {
    certifier = std::make_unique<online::Certifier>(options);
  }
  // Replay the uncovered log suffix.  Rejections are not errors: the
  // original session logged every acked batch before ingesting it, so a
  // rejected event is replayed into the same rejection and the rebuilt
  // counters match the uninterrupted run's.
  for (const auto& event : state.SuffixEvents()) {
    const Status status = certifier->Ingest(event);
    if (accepted_stream != nullptr && status.ok() &&
        event.kind != workload::TraceEventKind::kCommit &&
        event.kind != workload::TraceEventKind::kCommitThrough) {
      accepted_stream->push_back(event);
    }
  }
  return certifier;
}

Status VerifyRecovery(const online::Certifier& certifier,
                      uint64_t expected_events) {
  const online::CertifierStats stats = certifier.Stats();
  if (stats.events_accepted + stats.events_rejected != expected_events) {
    return Status::Internal(
        "recovered session accounts for " +
        std::to_string(stats.events_accepted + stats.events_rejected) +
        " events but " + std::to_string(expected_events) +
        " were durably logged");
  }
  // The batch oracle runs on the session's live window: pruned subtrees
  // are gone from the certifier, and nothing outside the window can lie
  // on a violation cycle (docs/THEORY.md, "The window decides the verdict").
  auto state = online::CaptureCertifierState(certifier);
  if (!state.ok()) {
    return Status::Internal("cannot capture recovered window: " +
                            state.status().ToString());
  }
  auto window = workload::LoadTrace(state->trace);
  if (!window.ok()) {
    return Status::Internal("cannot load recovered window: " +
                            window.status().ToString());
  }
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  auto batch = CheckCompC(*window, options);
  if (!batch.ok()) {
    return Status::Internal("batch replay of recovered system failed: " +
                            batch.status().ToString());
  }
  if (batch->correct != certifier.Certifiable()) {
    return Status::Internal(
        std::string("recovered verdict diverges from batch oracle: online "
                    "says ") +
        (certifier.Certifiable() ? "certifiable" : "not certifiable") +
        ", batch says " + (batch->correct ? "certifiable" : "not certifiable"));
  }
  return Status::OK();
}

}  // namespace comptx::durability
