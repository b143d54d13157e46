#ifndef COMPTX_DURABILITY_SNAPSHOT_H_
#define COMPTX_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "online/state_io.h"
#include "util/status_or.h"

namespace comptx::durability {

/// A snapshot file: one CRC-framed image of a session's certifier state
/// plus the metadata recovery needs to splice the WAL suffix back on
/// (DESIGN.md §11.3).  `event_seq` is the watermark: every event with
/// 1-based sequence number <= event_seq is reflected in `state`, so
/// recovery replays only WAL events with seq > event_seq.
struct Snapshot {
  uint64_t session_id = 0;
  uint64_t event_seq = 0;       // events covered by the image
  std::string options;          // the session's OPEN options text
  online::CertifierState state;
};

/// Serializes `snapshot` into the on-disk byte string (DESIGN.md §11.3):
///   magic "comptxs2" | u32 payload_len | u32 crc32(payload) | payload
/// where the payload holds, little-endian: session id, event seq,
/// accepted, rejected (u64 each), certifiable (u8), the options text and
/// the sealed live roots (u32-counted), node count (u32), root count and
/// commit watermark (u64), the live id table and live root ordinals
/// (u32-counted u32 lists), the invocation edges (u32-counted u32 pairs)
/// and the window trace (u64-length text).
std::string EncodeSnapshot(const Snapshot& snapshot);

/// Decodes a snapshot file image, either format.  A "comptxs1" image
/// (no window fields; its trace is the whole history) restores by full
/// replay.  Unlike the WAL reader there is no
/// partial result: a snapshot is valid as a whole or not at all (it is
/// published atomically, so damage means disk corruption, not a torn
/// write mid-stream — recovery then falls back to the WAL alone if the
/// log was not yet truncated, or refuses the session if it was).
StatusOr<Snapshot> DecodeSnapshot(const std::string& bytes);

/// Writes `snapshot` to `path` atomically: temp file in the same
/// directory, fsync, rename over `path`, fsync the directory.
Status WriteSnapshotFile(const std::string& path, const Snapshot& snapshot);

/// Reads and decodes `path`.  kNotFound when the file does not exist;
/// kInvalidArgument / kOutOfRange when it exists but does not decode.
StatusOr<Snapshot> ReadSnapshotFile(const std::string& path);

inline constexpr char kSnapshotMagic[8] = {'c', 'o', 'm', 'p',
                                           't', 'x', 's', '2'};
/// The pre-window format, still decoded.
inline constexpr char kSnapshotMagicV1[8] = {'c', 'o', 'm', 'p',
                                             't', 'x', 's', '1'};

}  // namespace comptx::durability

#endif  // COMPTX_DURABILITY_SNAPSHOT_H_
