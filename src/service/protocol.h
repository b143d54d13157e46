#ifndef COMPTX_SERVICE_PROTOCOL_H_
#define COMPTX_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status_or.h"
#include "workload/trace.h"

namespace comptx::service {

/// comptx-serve wire protocols.
///
/// Two framings share every port.  The server auto-detects per frame on
/// the first byte: ASCII digits open a textual v1 frame, the v2 magic
/// byte 'C' (never a digit) opens a binary v2 frame — so old clients,
/// netcat debugging and new batch clients interoperate on one listener,
/// and the server answers each request in the protocol it arrived in.
///
/// v1 (textual, kept for debugging and old clients).  Every message —
/// request or response — is one length-prefixed frame:
///
///     <payload-byte-count as decimal ASCII> '\n' <payload>
///
/// The prefix makes the stream self-delimiting without escaping (payload
/// bodies contain newlines), and keeping both the prefix and the payload
/// textual keeps the protocol debuggable with netcat.  Frames above
/// kMaxFrameBytes are rejected before the body is read (a malformed or
/// hostile prefix cannot make the server allocate unboundedly).
///
/// Request payloads: a command line, then an optional body.
///
///     OPEN [key=value ...]        options: forgetting, auto_prune,
///                                 queue_capacity, resume, stream
///                                 (static_admission, paranoid,
///                                 epoch_interval: checked and ignored)
///     APPEND <session-id>         body: one trace event line per line
///     QUERY <session-id>          drain barrier + verdict
///     CLOSE <session-id>          drain + final verdict + free the slot
///     STATS [json=1]              metrics snapshot (json=1: JSON body)
///     PING                        liveness probe
///     SHUTDOWN                    graceful drain, then the server exits
///     SUBSCRIBE <id> [k=v ...]    ORDER_STREAM handshake: from=<seq>
///     STREAM <id> [k=v ...]       long-poll fetch: from, max, wait_ms,
///                                 ack, sub; reply body = event lines
///     ATTACH <id> [k=v ...]       wire an upstream edge: edge, host,
///                                 port, remote
///     DETACH <id> [k=v ...]       tear an edge down: edge=<id>
///     PREPARE <id> [k=v ...]      2PC phase 1: k=<watermark>
///     DECIDE <id> [k=v ...]       2PC phase 2: k=<watermark>
///
/// Response payloads:
///
///     OK [key=value ...]          first line; body lines follow for STATS
///     ERR <code> <message>        codes: bad_request, not_found,
///                                 session_limit, session_closing,
///                                 session_busy, gap, shutting_down,
///                                 internal
///
/// APPEND acknowledges *enqueueing* (the events are certified
/// asynchronously by the worker pool); QUERY and CLOSE wait for the
/// session's queue to drain, so their accepted/rejected/certifiable
/// fields describe every event appended before them.
///
/// Durability (server started with --data-dir, DESIGN.md §11): an acked
/// APPEND is also *durable* under the server's fsync policy, OPEN with
/// resume=<id> re-opens a persisted (evicted or pre-restart) session —
/// the OK carries resumed_events, the count of durably logged events, so
/// the client continues the stream from there — and the STATS body gains
/// the durability counters (wal_appends, wal_append_events, wal_bytes,
/// fsyncs, snapshots_written, sessions_recovered, records_truncated,
/// recovered_events, recovery_mismatches; wal_append_events /
/// wal_appends is the group-commit amortization ratio).  The frame grammar is
/// unchanged: v1 clients interoperate untouched.
///
/// v2 (binary, DESIGN.md §12).  A fixed little-endian 20-byte header,
/// then the payload:
///
///     offset 0   u32  magic      0x32585443 ("CTX2"; first byte 'C')
///     offset 4   u8   version    2
///     offset 5   u8   opcode     Opcode below
///     offset 6   u16  flags      0 (reserved; non-zero is rejected)
///     offset 8   u64  session    id, or 0 when the opcode takes none
///     offset 16  u32  length     payload byte count (<= kMaxFrameBytes)
///
/// Request payloads: OPEN carries the raw "key=value ..." options text;
/// APPEND carries exactly one varint-packed event; BATCH_APPEND carries
/// a varint event count then that many packed events (one frame, one
/// enqueue, one certifier hand-off and one WAL group commit for the
/// whole batch — the amortization the protocol exists for); QUERY /
/// CLOSE / STATS / PING / SHUTDOWN have empty payloads.  Events pack with
/// the shared event codec (workload/event_codec.h): a kind byte followed
/// by the kind's fields, node/schedule references as LEB128 varints,
/// names as varint-length-prefixed bytes — the same bytes a WAL APPEND
/// record stores.
///
/// Response frames use opcode REPLY with the request's session id echoed
/// and the textual v1 response rendering ("OK key=value ..." / "ERR code
/// message" + body) as payload: responses are tiny and cold next to
/// APPEND bodies, so they keep the debuggable text form while the hot
/// request path gets the compact framing.
///
/// Semantics are protocol-independent: a BATCH_APPEND ack means every
/// event in the frame was enqueued (and is durable under --data-dir's
/// fsync policy), verdict barriers drain exactly like v1, and pipelined
/// requests on one connection are answered strictly in request order.
constexpr size_t kMaxFrameBytes = 4u << 20;

/// v2 constants.
constexpr uint32_t kWireMagicV2 = 0x32585443u;  // "CTX2" little-endian
constexpr uint8_t kWireVersion2 = 2;
constexpr size_t kWireHeaderBytes = 20;

enum class WireProtocol : uint8_t { kV1 = 1, kV2 = 2 };

enum class Opcode : uint8_t {
  kOpen = 1,
  kAppend = 2,
  kBatchAppend = 3,
  kQuery = 4,
  kClose = 5,
  kStats = 6,
  kPing = 7,
  kShutdown = 8,
  // ORDER_STREAM family (DESIGN.md §15): distributed composite
  // certification.  All five carry a "key=value ..." options text as
  // payload, exactly like OPEN, so the family can grow fields without
  // another frame format.
  kSubscribe = 9,    // validate a stream cursor against a session
  kStream = 10,      // long-poll fetch of accepted events past a cursor
  kAttach = 11,      // wire an upstream edge into a local session
  kDetach = 12,      // tear one edge down
  kPrepare = 13,     // 2PC phase 1: seal the subtree through watermark k
  kDecide = 14,      // 2PC phase 2: broadcast the commit decision
  kReply = 0x80,
};

enum class CommandKind : uint8_t {
  kOpen,
  kAppend,
  kQuery,
  kClose,
  kStats,
  kPing,
  kShutdown,
  kSubscribe,
  kStream,
  kAttach,
  kDetach,
  kPrepare,
  kDecide,
};

const char* CommandKindToString(CommandKind kind);

struct Request {
  CommandKind kind = CommandKind::kPing;
  uint64_t session = 0;  // APPEND / QUERY / CLOSE / ORDER_STREAM family
  std::string options;   // OPEN + ORDER_STREAM family + STATS: "key=value
                         // ..." verbatim (STATS accepts "json=1")
  std::vector<workload::TraceEvent> events;  // APPEND body
};

/// A parsed response.  `ok` distinguishes OK from ERR; `fields` holds the
/// OK key=values, `body` the remaining lines (STATS), and error_code /
/// error_message the ERR parts.
struct Response {
  bool ok = false;
  std::vector<std::pair<std::string, std::string>> fields;
  std::string body;
  std::string error_code;
  std::string error_message;

  /// The value of `key` in fields, or empty.
  std::string Field(const std::string& key) const;
  /// Field parsed as a plain unsigned decimal (ParseUint64: no sign, no
  /// overflow); `fallback` when absent or malformed.
  uint64_t FieldInt(const std::string& key, uint64_t fallback = 0) const;
};

std::string FormatRequest(const Request& request);
StatusOr<Request> ParseRequest(const std::string& payload);

std::string FormatResponse(const Response& response);
StatusOr<Response> ParseResponse(const std::string& payload);

/// Convenience builders.
Response OkResponse();
Response ErrorResponse(const std::string& code, const std::string& message);

// ---- frame layer ------------------------------------------------------

/// One decoded frame, protocol-tagged.  For v1 the payload is the whole
/// textual payload and opcode/session are unused; for v2 the header
/// fields are filled and payload is the binary body.
struct WireFrame {
  WireProtocol protocol = WireProtocol::kV1;
  Opcode opcode = Opcode::kPing;
  uint64_t session = 0;
  std::string payload;
};

/// Incremental frame extraction for the event loop: Feed() appends raw
/// bytes from a socket, Next() peels complete frames off the front,
/// auto-detecting v1 vs v2 per frame from the first byte.  Partial
/// frames stay buffered (Next returns false); a malformed prefix/header
/// or an oversized declared length is a terminal error — the connection
/// owner answers with a best-effort diagnostic and hangs up.
class FrameParser {
 public:
  explicit FrameParser(size_t max_bytes = kMaxFrameBytes)
      : max_bytes_(max_bytes) {}

  void Feed(const char* data, size_t size);

  /// True: `frame` holds the next complete frame.  False: need more
  /// bytes.  Error: framing violation (terminal for the connection).
  StatusOr<bool> Next(WireFrame& frame);

  size_t buffered() const { return buffer_.size() - pos_; }

 private:
  /// Drops consumed bytes once the prefix grows past a threshold, so a
  /// long-lived pipelined connection does not grow the buffer forever.
  void Compact();

  std::string buffer_;
  size_t pos_ = 0;
  size_t max_bytes_;  // not const: FrameParser members must stay movable
};

/// Encodes a request as complete wire bytes (prefix + payload for v1,
/// header + payload for v2).  In v2, APPEND with more than one event
/// becomes a BATCH_APPEND frame.
std::string EncodeRequestFrame(WireProtocol protocol, const Request& request);

/// Encodes a response as complete wire bytes in `protocol`, echoing
/// `session` in the v2 header.
std::string EncodeResponseFrame(WireProtocol protocol,
                                const Response& response, uint64_t session);

/// Decodes a parsed frame into a Request (v1: ParseRequest on the text;
/// v2: opcode switch over the binary payload).
StatusOr<Request> DecodeRequestFrame(const WireFrame& frame);

/// Decodes a parsed frame into a Response (both protocols carry the
/// textual response rendering; v2 checks the REPLY opcode).
StatusOr<Response> DecodeResponseFrame(const WireFrame& frame);

/// Blocking write of already-encoded wire bytes (EncodeRequestFrame /
/// EncodeResponseFrame output).
Status WriteWireBytes(int fd, const std::string& bytes);

/// Blocking read of one frame in either protocol: reads from `fd` into
/// `parser` until a frame completes.  NotFound on clean EOF at a frame
/// boundary.  The client side of the protocol (the server side runs the
/// non-blocking event loop over the same parser).
StatusOr<WireFrame> ReadWireFrame(int fd, FrameParser& parser);

const char* WireProtocolToString(WireProtocol protocol);
StatusOr<WireProtocol> ParseWireProtocol(const std::string& name);

}  // namespace comptx::service

#endif  // COMPTX_SERVICE_PROTOCOL_H_
