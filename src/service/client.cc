#include "service/client.h"

#include <string>
#include <utility>

#include "util/string_util.h"

namespace comptx::service {

StatusOr<ServiceClient> ServiceClient::Dial(const Endpoint& endpoint,
                                            WireProtocol protocol) {
  auto socket = Connect(endpoint);
  if (!socket.ok()) return socket.status();
  return ServiceClient(std::move(*socket), protocol);
}

StatusOr<Response> ServiceClient::Transport(const Request& request) {
  const std::string frame = EncodeRequestFrame(protocol_, request);
  Status sent = WriteWireBytes(socket_.fd(), frame);
  if (!sent.ok()) return sent;
  auto reply = ReadWireFrame(socket_.fd(), parser_);
  if (!reply.ok()) return reply.status();
  return DecodeResponseFrame(*reply);
}

StatusOr<Response> ServiceClient::RoundTrip(const Request& request) {
  auto response = Transport(request);
  if (!response.ok()) return response.status();
  if (!response->ok) {
    std::string what =
        StrCat(response->error_code, ": ", response->error_message);
    if (response->error_code == "session_busy") {
      return Status::AlreadyExists(std::move(what));
    }
    return Status::FailedPrecondition(std::move(what));
  }
  return response;
}

StatusOr<Response> ServiceClient::Command(CommandKind kind, uint64_t session,
                                          const std::string& options) {
  Request request;
  request.kind = kind;
  request.session = session;
  request.options = options;
  return Transport(request);
}

SessionVerdict VerdictFromResponse(const Response& response) {
  SessionVerdict verdict;
  verdict.session = response.FieldInt("session");
  verdict.certifiable = response.FieldInt("certifiable") == 1;
  verdict.order = static_cast<uint32_t>(response.FieldInt("order"));
  verdict.events_accepted = response.FieldInt("accepted");
  verdict.events_rejected = response.FieldInt("rejected");
  verdict.live_nodes = response.FieldInt("live_nodes");
  verdict.pruned_nodes = response.FieldInt("pruned_nodes");
  verdict.sealed_roots = response.FieldInt("sealed_roots");
  verdict.commit_watermark = response.FieldInt("commit_watermark");
  verdict.window_span = response.FieldInt("window_span");
  verdict.failure = response.body;
  return verdict;
}

StatusOr<uint64_t> ServiceClient::Open(const std::string& options) {
  Request request;
  request.kind = CommandKind::kOpen;
  request.options = options;
  COMPTX_ASSIGN_OR_RETURN(Response response, RoundTrip(request));
  return response.FieldInt("session");
}

StatusOr<uint64_t> ServiceClient::Append(
    uint64_t session, const std::vector<workload::TraceEvent>& events) {
  Request request;
  request.kind = CommandKind::kAppend;
  request.session = session;
  request.events = events;
  COMPTX_ASSIGN_OR_RETURN(Response response, RoundTrip(request));
  return response.FieldInt("queued");
}

StatusOr<SessionVerdict> ServiceClient::Query(uint64_t session) {
  Request request;
  request.kind = CommandKind::kQuery;
  request.session = session;
  COMPTX_ASSIGN_OR_RETURN(Response response, RoundTrip(request));
  return VerdictFromResponse(response);
}

StatusOr<SessionVerdict> ServiceClient::Close(uint64_t session) {
  Request request;
  request.kind = CommandKind::kClose;
  request.session = session;
  COMPTX_ASSIGN_OR_RETURN(Response response, RoundTrip(request));
  return VerdictFromResponse(response);
}

StatusOr<std::string> ServiceClient::Stats(bool json) {
  Request request;
  request.kind = CommandKind::kStats;
  if (json) request.options = "json=1";
  COMPTX_ASSIGN_OR_RETURN(Response response, RoundTrip(request));
  return response.body;
}

Status ServiceClient::Ping() {
  Request request;
  request.kind = CommandKind::kPing;
  return RoundTrip(request).status();
}

Status ServiceClient::Shutdown() {
  Request request;
  request.kind = CommandKind::kShutdown;
  return RoundTrip(request).status();
}

}  // namespace comptx::service
