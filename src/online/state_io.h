#ifndef COMPTX_ONLINE_STATE_IO_H_
#define COMPTX_ONLINE_STATE_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "online/certifier.h"
#include "util/status_or.h"

namespace comptx::online {

/// A serializable image of a Certifier session, the unit the durability
/// layer snapshots to disk (DESIGN.md §11.3).  It is *not* a dump of the
/// engine's derived structures: it captures exactly the ingested facts of
/// the session's live window — the unpruned part of the composite system
/// as a trace, which of its roots are sealed — plus the few numbers the
/// window alone cannot tell, and relies on the certifier's replay-
/// equivalence property ("all derived state is a monotone function of the
/// ingested facts") to rebuild everything else.  That keeps the format
/// independent of every engine internal, keeps it O(window) however long
/// the session ran, and makes restores checkable against the batch oracle
/// (batch CheckCompC of LoadTrace(trace) gives the session's verdict).
struct CertifierState {
  /// SaveTrace() of the live window: nodes numbered by rank among the
  /// live ids.
  std::string trace;
  /// The session id of each window node, by rank (ascending).  Empty in
  /// an image that predates windowing: its trace numbers nodes by id.
  std::vector<uint32_t> live_ids;
  /// The creation ordinal of each live root, ascending.
  std::vector<uint32_t> live_root_ordinals;
  uint32_t node_count = 0;        // node ids ever assigned
  uint64_t root_count = 0;        // roots ever created
  uint64_t commit_watermark = 0;  // highest commit_through applied
  /// Schedule invocation edges (caller, callee), including those whose
  /// last witnessing `sub` was pruned: they keep the session's levels and
  /// recursion rejections.
  std::vector<std::pair<uint32_t, uint32_t>> invokes;
  std::vector<uint32_t> sealed;   // live sealed root ids, ascending
  uint64_t accepted = 0;          // stream counters at capture time
  uint64_t rejected = 0;
  bool certifiable = true;        // verdict at capture time (restore check)
};

/// Captures `certifier`'s state.  The caller must hold the session's
/// single-writer role (no concurrent Ingest), the same contract as
/// system().
StatusOr<CertifierState> CaptureCertifierState(const Certifier& certifier);

/// Rebuilds a certifier from a captured state: replays the window's
/// events with their original ids (skipping each released run of ids and
/// root ordinals first, via Certifier::SkipReleased), restores the
/// session's invocation edges, re-seals the recorded roots, re-applies
/// the commit watermark, prunes (when `options.auto_prune`), and restores
/// the stream counters.  Fails with kInternal when the replay rejects an
/// event or the rebuilt verdict disagrees with the recorded one — either
/// means the state image is corrupt or the replay-equivalence property
/// was broken, and a recovering server must not serve such a session
/// silently.
StatusOr<std::unique_ptr<Certifier>> RestoreCertifierState(
    const CertifierState& state, const CertifierOptions& options);

}  // namespace comptx::online

#endif  // COMPTX_ONLINE_STATE_IO_H_
