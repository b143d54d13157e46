#include "service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/string_util.h"
#include "workload/event_codec.h"

namespace comptx::service {

using workload::AppendEventBinary;
using workload::AppendVarint;
using workload::PutU16;
using workload::PutU32;
using workload::PutU64;
using workload::ReadEventBinary;
using workload::ReadVarint;

namespace {

/// Splits the payload into its command line and the remaining body.
void SplitPayload(const std::string& payload, std::string& head,
                  std::string& body) {
  const size_t newline = payload.find('\n');
  if (newline == std::string::npos) {
    head = payload;
    body.clear();
  } else {
    head = payload.substr(0, newline);
    body = payload.substr(newline + 1);
  }
}

StatusOr<uint64_t> ParseSessionIdToken(const std::string& token) {
  // Digits only: strtoull would wrap "-1" to 2^64-1 and take "+7".
  StatusOr<uint64_t> id = ParseUint64("session id", token);
  if (!id.ok()) {
    return Status::InvalidArgument(StrCat("bad session id '", token, "'"));
  }
  return id;
}

StatusOr<uint64_t> ParseSessionId(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) {
    return Status::InvalidArgument(
        StrCat(tokens[0], " needs exactly one session id"));
  }
  return ParseSessionIdToken(tokens[1]);
}

}  // namespace

const char* CommandKindToString(CommandKind kind) {
  switch (kind) {
    case CommandKind::kOpen:
      return "OPEN";
    case CommandKind::kAppend:
      return "APPEND";
    case CommandKind::kQuery:
      return "QUERY";
    case CommandKind::kClose:
      return "CLOSE";
    case CommandKind::kStats:
      return "STATS";
    case CommandKind::kPing:
      return "PING";
    case CommandKind::kShutdown:
      return "SHUTDOWN";
    case CommandKind::kSubscribe:
      return "SUBSCRIBE";
    case CommandKind::kStream:
      return "STREAM";
    case CommandKind::kAttach:
      return "ATTACH";
    case CommandKind::kDetach:
      return "DETACH";
    case CommandKind::kPrepare:
      return "PREPARE";
    case CommandKind::kDecide:
      return "DECIDE";
  }
  return "?";
}

std::string Response::Field(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return "";
}

uint64_t Response::FieldInt(const std::string& key, uint64_t fallback) const {
  const StatusOr<uint64_t> parsed = ParseUint64(key, Field(key));
  return parsed.ok() ? *parsed : fallback;
}

std::string FormatRequest(const Request& request) {
  std::string payload = CommandKindToString(request.kind);
  switch (request.kind) {
    case CommandKind::kOpen:
      if (!request.options.empty()) payload += StrCat(" ", request.options);
      break;
    case CommandKind::kAppend:
      payload += StrCat(" ", request.session);
      for (const workload::TraceEvent& event : request.events) {
        payload += StrCat("\n", workload::FormatTraceEvent(event));
      }
      break;
    case CommandKind::kQuery:
    case CommandKind::kClose:
      payload += StrCat(" ", request.session);
      break;
    case CommandKind::kStats:
      if (!request.options.empty()) payload += StrCat(" ", request.options);
      break;
    case CommandKind::kPing:
    case CommandKind::kShutdown:
      break;
    case CommandKind::kSubscribe:
    case CommandKind::kStream:
    case CommandKind::kAttach:
    case CommandKind::kDetach:
    case CommandKind::kPrepare:
    case CommandKind::kDecide:
      payload += StrCat(" ", request.session);
      if (!request.options.empty()) payload += StrCat(" ", request.options);
      break;
  }
  return payload;
}

StatusOr<Request> ParseRequest(const std::string& payload) {
  std::string head;
  std::string body;
  SplitPayload(payload, head, body);
  std::vector<std::string> tokens;
  for (const std::string& token : StrSplit(head, ' ')) {
    if (!token.empty()) tokens.push_back(token);
  }
  if (tokens.empty()) return Status::InvalidArgument("empty command line");

  Request request;
  const std::string& command = tokens[0];
  if (command == "OPEN") {
    request.kind = CommandKind::kOpen;
    const size_t space = head.find(' ');
    if (space != std::string::npos) request.options = head.substr(space + 1);
    return request;
  }
  if (command == "QUERY" || command == "CLOSE") {
    request.kind =
        command == "QUERY" ? CommandKind::kQuery : CommandKind::kClose;
    COMPTX_ASSIGN_OR_RETURN(request.session, ParseSessionId(tokens));
    return request;
  }
  if (command == "APPEND") {
    request.kind = CommandKind::kAppend;
    COMPTX_ASSIGN_OR_RETURN(request.session, ParseSessionId(tokens));
    size_t line_number = 1;
    size_t start = 0;
    while (start <= body.size() && !body.empty()) {
      size_t end = body.find('\n', start);
      if (end == std::string::npos) end = body.size();
      ++line_number;
      if (end > start) {
        auto event =
            workload::ParseTraceEventLine(body.substr(start, end - start));
        if (!event.ok()) {
          return Status::InvalidArgument(StrCat("APPEND body line ",
                                                line_number, ": ",
                                                event.status().message()));
        }
        request.events.push_back(std::move(*event));
      }
      if (end >= body.size()) break;
      start = end + 1;
    }
    return request;
  }
  if (command == "STATS") {
    request.kind = CommandKind::kStats;
    const size_t space = head.find(' ');
    if (space != std::string::npos) request.options = head.substr(space + 1);
    return request;
  }
  if (command == "SUBSCRIBE" || command == "STREAM" || command == "ATTACH" ||
      command == "DETACH" || command == "PREPARE" || command == "DECIDE") {
    request.kind = command == "SUBSCRIBE" ? CommandKind::kSubscribe
                   : command == "STREAM"  ? CommandKind::kStream
                   : command == "ATTACH"  ? CommandKind::kAttach
                   : command == "DETACH"  ? CommandKind::kDetach
                   : command == "PREPARE" ? CommandKind::kPrepare
                                          : CommandKind::kDecide;
    if (tokens.size() < 2) {
      return Status::InvalidArgument(StrCat(command, " needs a session id"));
    }
    COMPTX_ASSIGN_OR_RETURN(request.session, ParseSessionIdToken(tokens[1]));
    // Everything past the session id is the options text, verbatim.
    size_t pos = head.find(' ');                       // before the id
    if (pos != std::string::npos) pos = head.find(' ', pos + 1);  // after it
    if (pos != std::string::npos) request.options = head.substr(pos + 1);
    return request;
  }
  if (command == "PING") {
    request.kind = CommandKind::kPing;
    return request;
  }
  if (command == "SHUTDOWN") {
    request.kind = CommandKind::kShutdown;
    return request;
  }
  return Status::InvalidArgument(StrCat("unknown command '", command, "'"));
}

std::string FormatResponse(const Response& response) {
  if (!response.ok) {
    return StrCat("ERR ", response.error_code, " ", response.error_message);
  }
  std::string payload = "OK";
  for (const auto& [key, value] : response.fields) {
    payload += StrCat(" ", key, "=", value);
  }
  if (!response.body.empty()) payload += StrCat("\n", response.body);
  return payload;
}

StatusOr<Response> ParseResponse(const std::string& payload) {
  std::string head;
  std::string body;
  SplitPayload(payload, head, body);
  Response response;
  if (StartsWith(head, "ERR ")) {
    response.ok = false;
    const std::string rest = head.substr(4);
    const size_t space = rest.find(' ');
    if (space == std::string::npos) {
      response.error_code = rest;
    } else {
      response.error_code = rest.substr(0, space);
      response.error_message = rest.substr(space + 1);
    }
    return response;
  }
  if (head != "OK" && !StartsWith(head, "OK ")) {
    return Status::InvalidArgument(StrCat("malformed response '", head, "'"));
  }
  response.ok = true;
  for (const std::string& token : StrSplit(head, ' ')) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    response.fields.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  response.body = body;
  return response;
}

Response OkResponse() {
  Response response;
  response.ok = true;
  return response;
}

Response ErrorResponse(const std::string& code, const std::string& message) {
  Response response;
  response.ok = false;
  response.error_code = code;
  response.error_message = message;
  return response;
}

// ---- frame layer ------------------------------------------------------

namespace {

Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    // MSG_NOSIGNAL: a peer that hung up (or a socket shut down under us
    // during server teardown) yields EPIPE instead of a fatal SIGPIPE.
    const ssize_t n =
        ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrCat("write: ", std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

bool ValidOpcode(uint8_t opcode) {
  return (opcode >= static_cast<uint8_t>(Opcode::kOpen) &&
          opcode <= static_cast<uint8_t>(Opcode::kDecide)) ||
         opcode == static_cast<uint8_t>(Opcode::kReply);
}

std::string WireHeader(Opcode opcode, uint64_t session, size_t payload_size) {
  std::string out;
  out.reserve(kWireHeaderBytes + payload_size);
  PutU32(out, kWireMagicV2);
  out.push_back(static_cast<char>(kWireVersion2));
  out.push_back(static_cast<char>(opcode));
  PutU16(out, 0);  // flags, reserved
  PutU64(out, session);
  PutU32(out, static_cast<uint32_t>(payload_size));
  return out;
}

}  // namespace

void FrameParser::Feed(const char* data, size_t size) {
  buffer_.append(data, size);
}

void FrameParser::Compact() {
  // Amortized O(1): only shift once the dead prefix dominates.
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
}

StatusOr<bool> FrameParser::Next(WireFrame& frame) {
  Compact();
  const size_t available = buffer_.size() - pos_;
  if (available == 0) return false;
  const char first = buffer_[pos_];

  if (first >= '0' && first <= '9') {
    // v1: decimal length prefix, '\n', payload.
    size_t digits = 0;
    while (pos_ + digits < buffer_.size()) {
      const char c = buffer_[pos_ + digits];
      if (c == '\n') break;
      if (c < '0' || c > '9' || digits > 12) {
        return Status::InvalidArgument("malformed frame length prefix");
      }
      ++digits;
    }
    if (pos_ + digits >= buffer_.size()) return false;  // prefix incomplete
    const uint64_t size =
        std::strtoull(buffer_.substr(pos_, digits).c_str(), nullptr, 10);
    if (size > max_bytes_) {
      return Status::OutOfRange(StrCat("frame of ", size, " bytes exceeds the ",
                                       max_bytes_, "-byte limit"));
    }
    const size_t frame_end = pos_ + digits + 1 + static_cast<size_t>(size);
    if (frame_end > buffer_.size()) return false;  // payload incomplete
    frame.protocol = WireProtocol::kV1;
    frame.opcode = Opcode::kPing;
    frame.session = 0;
    frame.payload.assign(buffer_, pos_ + digits + 1, static_cast<size_t>(size));
    pos_ = frame_end;
    return true;
  }

  // v2: anything non-digit must open a valid header.  Validate the fixed
  // fields as soon as their bytes arrive, so a garbage first byte fails
  // fast instead of waiting for 20 bytes that may never come.
  workload::ByteCursor header{
      std::string_view(buffer_).substr(pos_, kWireHeaderBytes)};
  if (available >= 4) {
    if (header.GetU32() != kWireMagicV2) {
      return Status::InvalidArgument("bad frame magic");
    }
  } else {
    const char* magic = "CTX2";
    for (size_t i = 0; i < available; ++i) {
      if (buffer_[pos_ + i] != magic[i]) {
        return Status::InvalidArgument("bad frame magic");
      }
    }
    return false;
  }
  if (available < kWireHeaderBytes) return false;
  const uint8_t version = header.GetU8();
  if (version != kWireVersion2) {
    return Status::InvalidArgument(
        StrCat("unsupported protocol version ",
               static_cast<unsigned>(version)));
  }
  const uint8_t opcode = header.GetU8();
  if (!ValidOpcode(opcode)) {
    return Status::InvalidArgument(
        StrCat("unknown opcode ", static_cast<unsigned>(opcode)));
  }
  if (header.GetU16() != 0) {
    return Status::InvalidArgument("reserved flags must be zero");
  }
  const uint64_t session = header.GetU64();
  const uint32_t size = header.GetU32();
  if (size > max_bytes_) {
    return Status::OutOfRange(StrCat("frame of ", size, " bytes exceeds the ",
                                     max_bytes_, "-byte limit"));
  }
  if (available < kWireHeaderBytes + size) return false;
  frame.protocol = WireProtocol::kV2;
  frame.opcode = static_cast<Opcode>(opcode);
  frame.session = session;
  frame.payload.assign(buffer_, pos_ + kWireHeaderBytes, size);
  pos_ += kWireHeaderBytes + size;
  return true;
}

std::string EncodeRequestFrame(WireProtocol protocol, const Request& request) {
  if (protocol == WireProtocol::kV1) {
    const std::string payload = FormatRequest(request);
    std::string frame = StrCat(payload.size(), "\n");
    frame += payload;
    return frame;
  }
  std::string payload;
  Opcode opcode = Opcode::kPing;
  uint64_t session = 0;
  switch (request.kind) {
    case CommandKind::kOpen:
      opcode = Opcode::kOpen;
      payload = request.options;
      break;
    case CommandKind::kAppend:
      session = request.session;
      if (request.events.size() == 1) {
        opcode = Opcode::kAppend;
        AppendEventBinary(payload, request.events.front());
      } else {
        opcode = Opcode::kBatchAppend;
        AppendVarint(payload, request.events.size());
        for (const workload::TraceEvent& event : request.events) {
          AppendEventBinary(payload, event);
        }
      }
      break;
    case CommandKind::kQuery:
      opcode = Opcode::kQuery;
      session = request.session;
      break;
    case CommandKind::kClose:
      opcode = Opcode::kClose;
      session = request.session;
      break;
    case CommandKind::kStats:
      opcode = Opcode::kStats;
      payload = request.options;
      break;
    case CommandKind::kPing:
      opcode = Opcode::kPing;
      break;
    case CommandKind::kShutdown:
      opcode = Opcode::kShutdown;
      break;
    case CommandKind::kSubscribe:
    case CommandKind::kStream:
    case CommandKind::kAttach:
    case CommandKind::kDetach:
    case CommandKind::kPrepare:
    case CommandKind::kDecide:
      // The ORDER_STREAM family carries its options text as payload,
      // mirroring OPEN: the fields are small and cold next to the event
      // bodies flowing the other way.
      opcode = request.kind == CommandKind::kSubscribe ? Opcode::kSubscribe
               : request.kind == CommandKind::kStream  ? Opcode::kStream
               : request.kind == CommandKind::kAttach  ? Opcode::kAttach
               : request.kind == CommandKind::kDetach  ? Opcode::kDetach
               : request.kind == CommandKind::kPrepare ? Opcode::kPrepare
                                                       : Opcode::kDecide;
      session = request.session;
      payload = request.options;
      break;
  }
  std::string frame = WireHeader(opcode, session, payload.size());
  frame += payload;
  return frame;
}

std::string EncodeResponseFrame(WireProtocol protocol,
                                const Response& response, uint64_t session) {
  const std::string payload = FormatResponse(response);
  if (protocol == WireProtocol::kV1) {
    std::string frame = StrCat(payload.size(), "\n");
    frame += payload;
    return frame;
  }
  std::string frame = WireHeader(Opcode::kReply, session, payload.size());
  frame += payload;
  return frame;
}

StatusOr<Request> DecodeRequestFrame(const WireFrame& frame) {
  if (frame.protocol == WireProtocol::kV1) {
    return ParseRequest(frame.payload);
  }
  Request request;
  request.session = frame.session;
  size_t pos = 0;
  switch (frame.opcode) {
    case Opcode::kOpen:
      request.kind = CommandKind::kOpen;
      request.options = frame.payload;
      return request;
    case Opcode::kAppend: {
      request.kind = CommandKind::kAppend;
      workload::TraceEvent event;
      COMPTX_RETURN_IF_ERROR(ReadEventBinary(frame.payload, pos, event));
      if (pos != frame.payload.size()) {
        return Status::InvalidArgument("trailing bytes after APPEND event");
      }
      request.events.push_back(std::move(event));
      return request;
    }
    case Opcode::kBatchAppend: {
      request.kind = CommandKind::kAppend;
      uint64_t count = 0;
      COMPTX_RETURN_IF_ERROR(ReadVarint(frame.payload, pos, count));
      // A hostile count cannot reserve more than the frame itself
      // justifies.
      if (count >
          (frame.payload.size() - pos) / workload::kMinEventBinaryBytes) {
        return Status::InvalidArgument(
            StrCat("BATCH_APPEND count ", count, " exceeds the payload"));
      }
      request.events.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        workload::TraceEvent event;
        COMPTX_RETURN_IF_ERROR(ReadEventBinary(frame.payload, pos, event));
        request.events.push_back(std::move(event));
      }
      if (pos != frame.payload.size()) {
        return Status::InvalidArgument(
            "trailing bytes after BATCH_APPEND events");
      }
      return request;
    }
    case Opcode::kQuery:
      request.kind = CommandKind::kQuery;
      return request;
    case Opcode::kClose:
      request.kind = CommandKind::kClose;
      return request;
    case Opcode::kStats:
      request.kind = CommandKind::kStats;
      request.options = frame.payload;
      return request;
    case Opcode::kPing:
      request.kind = CommandKind::kPing;
      return request;
    case Opcode::kShutdown:
      request.kind = CommandKind::kShutdown;
      return request;
    case Opcode::kSubscribe:
      request.kind = CommandKind::kSubscribe;
      request.options = frame.payload;
      return request;
    case Opcode::kStream:
      request.kind = CommandKind::kStream;
      request.options = frame.payload;
      return request;
    case Opcode::kAttach:
      request.kind = CommandKind::kAttach;
      request.options = frame.payload;
      return request;
    case Opcode::kDetach:
      request.kind = CommandKind::kDetach;
      request.options = frame.payload;
      return request;
    case Opcode::kPrepare:
      request.kind = CommandKind::kPrepare;
      request.options = frame.payload;
      return request;
    case Opcode::kDecide:
      request.kind = CommandKind::kDecide;
      request.options = frame.payload;
      return request;
    case Opcode::kReply:
      break;
  }
  return Status::InvalidArgument("REPLY is not a request opcode");
}

StatusOr<Response> DecodeResponseFrame(const WireFrame& frame) {
  if (frame.protocol == WireProtocol::kV2 && frame.opcode != Opcode::kReply) {
    return Status::InvalidArgument("response frame is not a REPLY");
  }
  return ParseResponse(frame.payload);
}

Status WriteWireBytes(int fd, const std::string& bytes) {
  return WriteAll(fd, bytes.data(), bytes.size());
}

StatusOr<WireFrame> ReadWireFrame(int fd, FrameParser& parser) {
  WireFrame frame;
  for (;;) {
    auto ready = parser.Next(frame);
    if (!ready.ok()) return ready.status();
    if (*ready) return frame;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrCat("read: ", std::strerror(errno)));
    }
    if (n == 0) {
      if (parser.buffered() == 0) {
        return Status::NotFound("connection closed");
      }
      return Status::Internal("connection closed mid-frame");
    }
    parser.Feed(chunk, static_cast<size_t>(n));
  }
}

const char* WireProtocolToString(WireProtocol protocol) {
  return protocol == WireProtocol::kV2 ? "v2" : "v1";
}

StatusOr<WireProtocol> ParseWireProtocol(const std::string& name) {
  if (name == "v1" || name == "1") return WireProtocol::kV1;
  if (name == "v2" || name == "2") return WireProtocol::kV2;
  return Status::InvalidArgument(
      StrCat("unknown protocol '", name, "' (want v1 or v2)"));
}

}  // namespace comptx::service
