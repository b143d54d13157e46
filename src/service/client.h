#ifndef COMPTX_SERVICE_CLIENT_H_
#define COMPTX_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/session_manager.h"
#include "service/socket.h"
#include "util/status_or.h"

namespace comptx::service {

/// Reads a QUERY / CLOSE reply's verdict fields back into a verdict: the
/// inverse of the server's reply rendering, shared by the wire client and
/// the server's in-process Query/Close.
SessionVerdict VerdictFromResponse(const Response& response);

/// Blocking client for the comptx-serve wire protocol.  One connection,
/// one outstanding request at a time; not thread-safe (give each client
/// thread its own instance — comptx_load does).  Any transport or ERR
/// response surfaces as a non-OK Status whose message carries the wire
/// error code.
///
/// The protocol chosen at Dial frames every request: v1 is the textual
/// protocol, v2 the binary one (protocol.h) — under v2, a multi-event
/// Append travels as one BATCH_APPEND frame.  Both interoperate with the
/// same server, which answers in the protocol each request arrived in.
class ServiceClient {
 public:
  static StatusOr<ServiceClient> Dial(
      const Endpoint& endpoint, WireProtocol protocol = WireProtocol::kV1);

  ServiceClient(ServiceClient&&) = default;
  ServiceClient& operator=(ServiceClient&&) = default;

  /// OPEN with "key=value ..." options; returns the session id.
  StatusOr<uint64_t> Open(const std::string& options = "");

  /// APPEND; returns the number of events the server queued.
  StatusOr<uint64_t> Append(uint64_t session,
                            const std::vector<workload::TraceEvent>& events);

  /// QUERY / CLOSE: drain barrier + verdict.
  StatusOr<SessionVerdict> Query(uint64_t session);
  StatusOr<SessionVerdict> Close(uint64_t session);

  /// STATS body ("key value" lines; `json` asks for the JSON rendering).
  StatusOr<std::string> Stats(bool json = false);

  /// Generic round trip for the ORDER_STREAM command family
  /// (SUBSCRIBE/STREAM/ATTACH/DETACH/PREPARE/DECIDE) and other
  /// options-only commands.  Unlike the typed wrappers, ERR replies come
  /// back as a Response with ok=false rather than as a Status, so callers
  /// can branch on the wire error code (e.g. "gap" → resubscribe from the
  /// durable cursor).  Transport failures are still a non-OK Status.
  StatusOr<Response> Command(CommandKind kind, uint64_t session,
                             const std::string& options = "");

  Status Ping();

  /// Asks the server to drain and exit.
  Status Shutdown();

  WireProtocol protocol() const { return protocol_; }

 private:
  ServiceClient(Socket socket, WireProtocol protocol)
      : socket_(std::move(socket)), protocol_(protocol) {}

  StatusOr<Response> RoundTrip(const Request& request);
  StatusOr<Response> Transport(const Request& request);

  Socket socket_;
  WireProtocol protocol_ = WireProtocol::kV1;
  FrameParser parser_;
};

}  // namespace comptx::service

#endif  // COMPTX_SERVICE_CLIENT_H_
