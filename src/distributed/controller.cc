#include "distributed/controller.h"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "durability/recovery.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace comptx::distributed {

using service::CommandKind;
using service::ErrorResponse;
using service::OkResponse;
using service::Request;
using service::Response;
using workload::TraceEvent;
using workload::TraceEventKind;

namespace {

/// "key=value ..." into a map, rejecting any key outside `known` so a
/// typo fails loudly.  Values may be arbitrary non-space text (host
/// names), so typing is left to the caller.
StatusOr<std::unordered_map<std::string, std::string>> ParseOptions(
    const std::string& text, std::initializer_list<std::string_view> known) {
  COMPTX_ASSIGN_OR_RETURN(std::vector<KeyValue> tokens,
                          ParseKeyValues(text, "option"));
  std::unordered_map<std::string, std::string> options;
  for (auto& [key, value] : tokens) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::InvalidArgument(StrCat("unknown option '", key, "'"));
    }
    options[key] = std::move(value);
  }
  return options;
}

StatusOr<uint64_t> RequireUint(
    const std::unordered_map<std::string, std::string>& options,
    const std::string& key) {
  auto it = options.find(key);
  if (it == options.end()) {
    return Status::InvalidArgument(StrCat("missing required option ", key));
  }
  return ParseUint64(key, it->second);
}

Response StatusResponse(const Status& status) {
  return ErrorResponse(
      status.code() == StatusCode::kNotFound ? "not_found" : "bad_request",
      status.message());
}

}  // namespace

NodeController::NodeController(service::CertificationServer* server,
                               ControllerOptions options)
    : server_(server), options_(std::move(options)) {}

NodeController::~NodeController() {
  // Extract every ingestor under the lock, stop them outside it: Stop()
  // joins a thread that may be blocked in ApplyBatch wanting mu_.
  std::vector<std::unique_ptr<UpstreamIngestor>> ingestors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, state] : sessions_) {
      for (auto& [edge, e] : state.edges) {
        if (e.ingestor != nullptr) ingestors.push_back(std::move(e.ingestor));
      }
    }
  }
  for (auto& ingestor : ingestors) ingestor->Stop();
}

Response NodeController::Handle(const Request& request) {
  switch (request.kind) {
    case CommandKind::kAttach:
      return HandleAttach(request.session, request.options);
    case CommandKind::kDetach:
      return HandleDetach(request.session, request.options);
    case CommandKind::kPrepare:
      return HandlePrepare(request.session, request.options);
    case CommandKind::kDecide:
      return HandleDecide(request.session, request.options);
    default:
      return ErrorResponse("bad_request", "not a distributed command");
  }
}

Status NodeController::RecoverSessionLocked(uint64_t session,
                                            SessionState& state) {
  state.recovered = true;
  if (options_.data_dir.empty()) return Status::OK();
  auto durable =
      durability::ReadSessionDurableState(options_.data_dir, session);
  if (!durable.ok()) {
    // Nothing on disk: a fresh session.
    if (durable.status().code() == StatusCode::kNotFound) return Status::OK();
    return durable.status();
  }
  if (durable->has_snapshot) {
    // Stream sessions are snapshot-exempt, so a snapshot means the
    // session was not opened stream=1 — its WAL is compacted and the
    // remap history is incomplete.
    return Status::FailedPrecondition(
        StrCat("session ", session,
               " has a snapshot; remap state is only recoverable from "
               "stream=1 sessions"));
  }
  for (const durability::WalRecord& record : durable->wal_records) {
    switch (record.type) {
      case durability::WalRecordType::kAppend:
        for (const TraceEvent& event : record.events) {
          COMPTX_RETURN_IF_ERROR(state.remapper.ApplyLocal(event));
        }
        break;
      case durability::WalRecordType::kStreamCursor:
        COMPTX_RETURN_IF_ERROR(
            state.remapper.FoldDelta(record.edge, record.mapping));
        state.recovered_cursors[record.edge] = record.cursor_seq;
        break;
      default:
        break;  // lifecycle markers and commit watermarks carry no
                // translation state
    }
  }
  if (!state.recovered_cursors.empty()) {
    COMPTX_LOG(Info) << "session " << session << " recovered "
                     << state.recovered_cursors.size()
                     << " edge cursor(s) from the WAL";
  }
  return Status::OK();
}

Response NodeController::HandleAttach(uint64_t session,
                                      const std::string& options_text) {
  auto options = ParseOptions(options_text, {"edge", "host", "port", "remote"});
  if (!options.ok()) return StatusResponse(options.status());
  auto edge = RequireUint(*options, "edge");
  auto port = RequireUint(*options, "port");
  auto remote = RequireUint(*options, "remote");
  if (!edge.ok()) return StatusResponse(edge.status());
  if (!port.ok()) return StatusResponse(port.status());
  if (!remote.ok()) return StatusResponse(remote.status());
  if (*port > UINT16_MAX) {
    return ErrorResponse("bad_request",
                         StrCat("port=", *port, " exceeds ", UINT16_MAX));
  }
  auto host = options->find("host");
  if (host == options->end()) {
    return ErrorResponse("bad_request", "missing required option host");
  }
  auto local = server_->FindSession(session);
  if (!local.ok()) return StatusResponse(local.status());
  if (!(*local)->stream_enabled()) {
    // The local WAL doubles as the replication log for recovery and as
    // the merged-trace source; both need the full, uncompacted history
    // only stream sessions guarantee.
    return ErrorResponse("bad_request",
                         "ATTACH requires a stream=1 session");
  }

  std::unique_lock<std::mutex> lock(mu_);
  SessionState& state = StateFor(session);
  if (!state.recovered) {
    const Status recovered = RecoverSessionLocked(session, state);
    if (!recovered.ok()) return StatusResponse(recovered);
  }
  auto owner = edge_owner_.find(*edge);
  if (owner != edge_owner_.end()) {
    return ErrorResponse("bad_request",
                         StrCat("edge ", *edge, " already attached to session ",
                                owner->second));
  }
  Edge& e = state.edges[*edge];
  e.config.edge = *edge;
  e.config.local_session = session;
  e.config.remote_session = *remote;
  e.config.host = host->second;
  e.config.port = static_cast<uint16_t>(*port);
  e.config.batch_max = options_.batch_max;
  e.config.poll_wait_ms = options_.poll_wait_ms;
  e.config.backoff_ms = options_.backoff_ms;
  e.config.down_after = options_.down_after;
  auto cursor = state.recovered_cursors.find(*edge);
  e.cursor = cursor != state.recovered_cursors.end() ? cursor->second : 0;
  edge_owner_[*edge] = session;
  e.ingestor = std::make_unique<UpstreamIngestor>(e.config, this,
                                                  &server_->metrics());
  e.ingestor->Start();

  Response response = OkResponse();
  response.fields.emplace_back("edge", StrCat(*edge));
  response.fields.emplace_back("cursor", StrCat(e.cursor));
  return response;
}

Response NodeController::HandleDetach(uint64_t session,
                                      const std::string& options_text) {
  auto options = ParseOptions(options_text, {"edge"});
  if (!options.ok()) return StatusResponse(options.status());
  auto edge = RequireUint(*options, "edge");
  if (!edge.ok()) return StatusResponse(edge.status());

  std::unique_ptr<UpstreamIngestor> ingestor;
  uint64_t cursor = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto state = sessions_.find(session);
    if (state == sessions_.end()) {
      return ErrorResponse("not_found", StrCat("session ", session,
                                               " has no attached edges"));
    }
    auto it = state->second.edges.find(*edge);
    if (it == state->second.edges.end()) {
      return ErrorResponse("not_found", StrCat("edge ", *edge,
                                               " is not attached"));
    }
    ingestor = std::move(it->second.ingestor);
    cursor = it->second.cursor;
    // Remember the cursor: a re-ATTACH of the same edge resumes from it.
    state->second.recovered_cursors[*edge] = cursor;
    state->second.edges.erase(it);
    edge_owner_.erase(*edge);
    cursor_cv_.notify_all();
  }
  if (ingestor != nullptr) ingestor->Stop();
  Response response = OkResponse();
  response.fields.emplace_back("edge", StrCat(*edge));
  response.fields.emplace_back("cursor", StrCat(cursor));
  return response;
}

StatusOr<uint64_t> NodeController::ApplyBatch(
    uint64_t edge, uint64_t from, const std::vector<TraceEvent>& events) {
  std::unique_lock<std::mutex> lock(mu_);
  auto owner = edge_owner_.find(edge);
  if (owner == edge_owner_.end()) {
    return Status::NotFound(StrCat("edge ", edge, " detached"));
  }
  const uint64_t session = owner->second;
  SessionState& state = sessions_[session];
  Edge& e = state.edges[edge];
  if (from != e.cursor + 1) {
    return Status::Internal(StrCat("edge ", edge, " batch from=", from,
                                   " but durable cursor is ", e.cursor));
  }
  // Remap and ingest under one mu_ hold: the WAL interleaves every
  // session's batches with their cursor records in ingest order, and
  // recovery refolds them in that same order — two edges racing between
  // remap and log would break that equivalence.
  SessionRemapper::BatchResult batch = state.remapper.RemapBatch(edge, events);
  const uint64_t new_cursor = from + events.size() - 1;
  COMPTX_RETURN_IF_ERROR(server_->IngestRemote(
      session, std::move(batch.events), edge, new_cursor, batch.delta));
  e.cursor = new_cursor;
  if (batch.deduped > 0) {
    server_->metrics().remote_events_deduped.fetch_add(
        batch.deduped, std::memory_order_relaxed);
  }
  if (batch.rejected > 0) {
    server_->metrics().remote_remap_drops.fetch_add(
        batch.rejected, std::memory_order_relaxed);
  }
  cursor_cv_.notify_all();
  return new_cursor;
}

uint64_t NodeController::DurableCursor(uint64_t edge) {
  std::lock_guard<std::mutex> lock(mu_);
  auto owner = edge_owner_.find(edge);
  if (owner == edge_owner_.end()) return 0;
  return sessions_[owner->second].edges[edge].cursor;
}

void NodeController::OnEdgeState(uint64_t edge, bool up) {
  std::lock_guard<std::mutex> lock(mu_);
  auto owner = edge_owner_.find(edge);
  if (owner != edge_owner_.end()) {
    sessions_[owner->second].edges[edge].up = up;
  }
  COMPTX_LOG(Info) << "edge " << edge << (up ? " up" : " down");
  cursor_cv_.notify_all();
}

Response NodeController::HandlePrepare(uint64_t session,
                                       const std::string& options_text) {
  auto options = ParseOptions(options_text, {"k"});
  if (!options.ok()) return StatusResponse(options.status());
  auto k = RequireUint(*options, "k");
  if (!k.ok()) return StatusResponse(k.status());

  struct ChildPrepare {
    uint64_t edge = 0;
    uint64_t remote_session = 0;
    std::string host;
    uint16_t port = 0;
    uint64_t child_k = 0;
    uint64_t sealed = 0;  // filled by the child's PREPARE reply
  };
  std::vector<ChildPrepare> children;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto state = sessions_.find(session);
    if (state != sessions_.end()) {
      for (const auto& [edge, e] : state->second.edges) {
        ChildPrepare child;
        child.edge = edge;
        child.remote_session = e.config.remote_session;
        child.host = e.config.host;
        child.port = e.config.port;
        child.child_k = state->second.remapper.ChildWatermark(edge, *k);
        if (child.child_k > 0) children.push_back(std::move(child));
      }
    }
  }

  // Phase 1a, top-down: seal each child's subtree through its translated
  // watermark.  Network I/O happens outside mu_ so the edges' ingestors
  // keep draining the very events we are about to wait for.
  for (ChildPrepare& child : children) {
    service::Endpoint endpoint;
    endpoint.host = child.host;
    endpoint.port = child.port;
    auto client =
        service::ServiceClient::Dial(endpoint, service::WireProtocol::kV2);
    if (!client.ok()) {
      return ErrorResponse("prepare_failed",
                           StrCat("edge ", child.edge, ": ",
                                  client.status().message()));
    }
    auto reply = client->Command(CommandKind::kPrepare, child.remote_session,
                                 StrCat("k=", child.child_k));
    if (!reply.ok()) {
      return ErrorResponse("prepare_failed",
                           StrCat("edge ", child.edge, ": ",
                                  reply.status().message()));
    }
    if (!reply->ok) {
      return ErrorResponse("prepare_failed",
                           StrCat("edge ", child.edge, ": ",
                                  (*reply).error_code, ": ",
                                  (*reply).error_message));
    }
    child.sealed = reply->FieldInt("sealed");
  }

  // Phase 1b: wait until each edge has ingested past its child's seal.
  // The child rejects post-seal events touching sealed roots, so cursor
  // >= sealed means every event the child will ever accept for the roots
  // we are about to commit is already in our certifier's queue.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.prepare_timeout_ms);
  for (const ChildPrepare& child : children) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto caught_up = [&]() -> bool {
      auto owner = edge_owner_.find(child.edge);
      if (owner == edge_owner_.end()) return true;  // detached mid-round
      return sessions_[owner->second].edges[child.edge].cursor >=
             child.sealed;
    };
    if (!cursor_cv_.wait_until(lock, deadline, caught_up)) {
      return ErrorResponse(
          "prepare_failed",
          StrCat("edge ", child.edge, " did not reach sealed seq ",
                 child.sealed, " within ", options_.prepare_timeout_ms,
                 "ms (child down?)"));
    }
  }

  // Local seal: commit_through k through the normal append path (one
  // WAL APPEND record — the durable prepare decision), then a
  // drain barrier so the watermark is applied before we ack.
  TraceEvent commit;
  commit.kind = TraceEventKind::kCommitThrough;
  commit.a = static_cast<uint32_t>(*k);
  const Status appended = server_->Append(session, {commit});
  if (!appended.ok()) {
    return ErrorResponse("prepare_failed", appended.message());
  }
  auto drained = server_->Query(session);
  if (!drained.ok()) {
    return ErrorResponse("prepare_failed", drained.status().message());
  }

  server_->metrics().prepares.fetch_add(1, std::memory_order_relaxed);
  uint64_t sealed = 0;
  if (auto local = server_->FindSession(session); local.ok()) {
    sealed = (*local)->StreamWatermark();
  }
  Response response = OkResponse();
  response.fields.emplace_back("k", StrCat(*k));
  response.fields.emplace_back("sealed", StrCat(sealed));
  return response;
}

Response NodeController::HandleDecide(uint64_t session,
                                      const std::string& options_text) {
  auto options = ParseOptions(options_text, {"k"});
  if (!options.ok()) return StatusResponse(options.status());
  auto k = RequireUint(*options, "k");
  if (!k.ok()) return StatusResponse(k.status());

  struct ChildDecide {
    uint64_t remote_session = 0;
    std::string host;
    uint16_t port = 0;
    uint64_t child_k = 0;
  };
  std::vector<ChildDecide> children;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto state = sessions_.find(session);
    if (state != sessions_.end()) {
      for (const auto& [edge, e] : state->second.edges) {
        const uint64_t child_k =
            state->second.remapper.ChildWatermark(edge, *k);
        if (child_k > 0) {
          children.push_back({e.config.remote_session, e.config.host,
                              e.config.port, child_k});
        }
      }
    }
  }
  // Best-effort fan-out: the decision is already durable everywhere
  // (PREPARE logged it), so a failed DECIDE costs observability, not
  // correctness.
  for (const ChildDecide& child : children) {
    service::Endpoint endpoint;
    endpoint.host = child.host;
    endpoint.port = child.port;
    auto client =
        service::ServiceClient::Dial(endpoint, service::WireProtocol::kV2);
    if (!client.ok()) continue;
    (void)client->Command(CommandKind::kDecide, child.remote_session,
                          StrCat("k=", child.child_k));
  }
  server_->metrics().decides.fetch_add(1, std::memory_order_relaxed);
  Response response = OkResponse();
  response.fields.emplace_back("k", StrCat(*k));
  return response;
}

}  // namespace comptx::distributed
