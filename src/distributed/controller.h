#ifndef COMPTX_DISTRIBUTED_CONTROLLER_H_
#define COMPTX_DISTRIBUTED_CONTROLLER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "distributed/ingest.h"
#include "distributed/remap.h"
#include "service/server.h"

namespace comptx::distributed {

/// Knobs of one node's distributed controller.
struct ControllerOptions {
  /// The server's durability directory.  When non-empty, the first ATTACH
  /// touching a session folds its WAL (events + kStreamCursor records)
  /// back into the remapper, so a restarted node resumes every edge from
  /// its durable cursor with the exact pre-crash translation tables.
  std::string data_dir;

  uint64_t batch_max = 256;
  uint64_t poll_wait_ms = 500;
  uint64_t backoff_ms = 100;
  uint32_t down_after = 5;

  /// PREPARE gives each child this long to seal and the matching edge
  /// cursor this long to catch up before failing the round.
  uint64_t prepare_timeout_ms = 30000;
};

/// The per-process brain of a distributed composite topology node
/// (DESIGN.md §15): owns the upstream edges of every local session,
/// remaps and ingests their streams, and runs the cross-node two-phase
/// commit.  comptx_serve constructs one and injects its Handle() into the
/// server (CertificationServer::SetDistributedHandler), which keeps the
/// service library free of an upward dependency on this one.
///
/// Commands (all carry "key=value ..." options):
///   ATTACH  <session>  edge=<id> host=<h> port=<p> remote=<session>
///           Wires a child's stream session into a local stream session
///           and starts the edge's ingestor.  Edge ids are globally
///           unique across the topology (they double as subscriber ids
///           at the child).  Replies edge=<id> cursor=<durable cursor>.
///   DETACH  <session>  edge=<id>
///   PREPARE <session>  k=<local commit watermark>
///           Multi-shot commit, phase 1 (Chockler & Gotsman style): for
///           every edge, translate k into the child's root-ordinal space
///           and recursively PREPARE the child; wait until the edge
///           cursor passes the child's sealed stream watermark (so every
///           event the child will ever accept for the sealed roots is
///           ingested here); then apply commit_through k locally and
///           drain.  Replies k=<k> sealed=<local stream watermark>.
///   DECIDE  <session>  k=<watermark>
///           Phase 2, informational: fans the decision out to the
///           children so their controllers can log/observe it.  The
///           commit itself became durable at each node during PREPARE
///           (the commit_through event in a WAL APPEND record), so DECIDE
///           carries no recovery obligation.
class NodeController : public UpstreamIngestor::Delegate {
 public:
  NodeController(service::CertificationServer* server,
                 ControllerOptions options);
  ~NodeController() override;

  NodeController(const NodeController&) = delete;
  NodeController& operator=(const NodeController&) = delete;

  /// The server's distributed-command handler (ATTACH/DETACH/PREPARE/
  /// DECIDE); inject via server->SetDistributedHandler.
  service::Response Handle(const service::Request& request);

  // ---- UpstreamIngestor::Delegate ----------------------------------
  StatusOr<uint64_t> ApplyBatch(
      uint64_t edge, uint64_t from,
      const std::vector<workload::TraceEvent>& events) override;
  uint64_t DurableCursor(uint64_t edge) override;
  void OnEdgeState(uint64_t edge, bool up) override;

 private:
  struct Edge {
    EdgeConfig config;
    std::unique_ptr<UpstreamIngestor> ingestor;
    uint64_t cursor = 0;  // durably applied upstream seq
    bool up = false;
  };

  struct SessionState {
    SessionRemapper remapper;
    std::unordered_map<uint64_t, Edge> edges;
    std::unordered_map<uint64_t, uint64_t> recovered_cursors;  // by edge
    bool recovered = false;
  };

  service::Response HandleAttach(uint64_t session, const std::string& options);
  service::Response HandleDetach(uint64_t session, const std::string& options);
  service::Response HandlePrepare(uint64_t session, const std::string& options);
  service::Response HandleDecide(uint64_t session, const std::string& options);

  /// Folds the session's durable WAL into a fresh remapper (events via
  /// ApplyLocal, kStreamCursor records via FoldDelta) and records each
  /// edge's recovered cursor.  Caller holds mu_; runs once per session.
  Status RecoverSessionLocked(uint64_t session, SessionState& state);

  SessionState& StateFor(uint64_t session) { return sessions_[session]; }

  service::CertificationServer* const server_;
  const ControllerOptions options_;

  std::mutex mu_;  // sessions_, edge_owner_, all remap/cursor state
  std::condition_variable cursor_cv_;  // PREPARE waits for cursor advance
  std::unordered_map<uint64_t, SessionState> sessions_;
  std::unordered_map<uint64_t, uint64_t> edge_owner_;  // edge -> session
};

}  // namespace comptx::distributed

#endif  // COMPTX_DISTRIBUTED_CONTROLLER_H_
