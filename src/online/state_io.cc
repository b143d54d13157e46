#include "online/state_io.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "util/status.h"
#include "util/string_util.h"
#include "workload/event_schema.h"
#include "workload/trace.h"

namespace comptx::online {

using workload::TraceEvent;
using workload::TraceEventKind;

StatusOr<CertifierState> CaptureCertifierState(const Certifier& certifier) {
  CertifierState state;
  for (const NodeId root : certifier.SealedRoots()) {
    state.sealed.push_back(root.index());
  }
  std::lock_guard<std::mutex> lock(certifier.mu_);
  const CompositeSystem& cs = certifier.cs_;
  COMPTX_ASSIGN_OR_RETURN(state.trace, workload::SaveTrace(cs));
  for (const NodeId id : cs.LiveNodes()) state.live_ids.push_back(id.index());
  const IdWindow<NodeId>& roots = certifier.roots_;
  for (uint64_t i = roots.begin(); i < roots.end(); ++i) {
    if (cs.HasNode(roots[i])) {
      state.live_root_ordinals.push_back(static_cast<uint32_t>(i));
    }
  }
  state.node_count = static_cast<uint32_t>(cs.NodeCount());
  state.root_count = roots.end();
  state.commit_watermark = certifier.commit_watermark_;
  for (uint32_t s = 0; s < certifier.invokes_.size(); ++s) {
    for (const uint32_t callee : certifier.invokes_[s]) {
      state.invokes.emplace_back(s, callee);
    }
  }
  std::sort(state.invokes.begin(), state.invokes.end());
  state.accepted = certifier.events_accepted_;
  state.rejected = certifier.events_rejected_;
  state.certifiable = certifier.engine_.certifiable();
  return state;
}

namespace {

/// Rewrites the node references of a window trace event from ranks to
/// session ids; false when a rank is outside the id table.
bool TranslateNodeRefs(const std::vector<uint32_t>& ids, TraceEvent& e) {
  bool ok = true;
  workload::ForEachRef(e, workload::FieldRole::kNode, [&](uint32_t& rank) {
    if (rank >= ids.size()) {
      ok = false;
      return;
    }
    rank = ids[rank];
  });
  return ok;
}

}  // namespace

StatusOr<std::unique_ptr<Certifier>> RestoreCertifierState(
    const CertifierState& state, const CertifierOptions& options) {
  COMPTX_ASSIGN_OR_RETURN(auto events, workload::ParseTraceEvents(state.trace));
  auto certifier = std::make_unique<Certifier>(options);
  const auto fail = [](const std::string& what, const Status& status) {
    return Status::Internal(StrCat("state replay ", what, ": ",
                                   status.ToString()));
  };
  // An image without an id table predates windowing: its trace numbers
  // nodes by id already, so replaying it reproduces the id assignment.
  const bool windowed = !state.live_ids.empty();
  size_t created = 0;     // window nodes replayed so far
  size_t roots_seen = 0;  // window roots replayed so far
  for (size_t i = 0; i < events.size(); ++i) {
    TraceEvent& e = events[i];
    const bool root = e.kind == TraceEventKind::kRoot;
    if (windowed && workload::CreatesNode(e.kind)) {
      // Skip the released run in front of this node (and, for a root,
      // in front of its ordinal) so it gets its original id.
      if (created >= state.live_ids.size() ||
          (root && roots_seen >= state.live_root_ordinals.size())) {
        return Status::Internal("state trace holds more nodes than its "
                                "id table");
      }
      const uint64_t next_root =
          roots_seen == 0 ? 0 : state.live_root_ordinals[roots_seen - 1] + 1;
      const Status status = certifier->SkipReleased(
          state.live_ids[created++],
          root ? state.live_root_ordinals[roots_seen++] : next_root);
      if (!status.ok()) return fail("cannot place node", status);
    }
    if (windowed && !TranslateNodeRefs(state.live_ids, e)) {
      return Status::Internal(
          StrCat("state trace event ", i, " names a node outside the window"));
    }
    // Every event must be accepted: the trace is the accepted history.
    const Status status = certifier->Ingest(e);
    if (!status.ok()) return fail(StrCat("rejected event ", i), status);
  }
  // The session's invocation edges, including those no live `sub`
  // witnesses any more, fix its levels (one rebuild if they differ from
  // the window's).
  Status status = certifier->RestoreInvocations(state.invokes);
  if (!status.ok()) return fail("cannot restore invocations", status);
  // Released ids and roots after the last live node.
  if (state.node_count > 0) {
    status = certifier->SkipReleased(state.node_count, state.root_count);
    if (!status.ok()) return fail("cannot skip released ids", status);
  }
  for (const uint32_t root : state.sealed) {
    status = certifier->Commit(NodeId(root));
    if (!status.ok()) {
      return fail(StrCat("cannot re-seal root ", root), status);
    }
  }
  if (state.commit_watermark > 0) {
    TraceEvent mark;
    mark.kind = TraceEventKind::kCommitThrough;
    mark.a = static_cast<uint32_t>(state.commit_watermark);
    status = certifier->Ingest(mark);
    if (!status.ok()) return fail("cannot re-apply the watermark", status);
  }
  // Commit() and the watermark above routed through Ingest and bumped the
  // accepted counter; overwrite both counters last so the restored
  // session reports the original stream's totals.
  certifier->RestoreCounters(state.accepted, state.rejected);
  if (certifier->Certifiable() != state.certifiable) {
    return Status::Internal(
        "restored verdict disagrees with captured verdict (state image "
        "corrupt or replay-equivalence broken)");
  }
  return certifier;
}

}  // namespace comptx::online
