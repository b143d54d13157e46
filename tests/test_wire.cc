// Adversarial wire-framing tests for the epoll event loop and the v2
// binary protocol (ctest label `service`): varint/packed-event codec
// round trips, incremental FrameParser behavior on partial and hostile
// input, raw-socket clients that trickle bytes or declare absurd
// lengths, v1/v2 auto-detection on one shared port (and one shared
// connection), pipelined request/response ordering, and BATCH_APPEND
// equivalence with event-at-a-time v1 appends.  The ServiceStressTest
// case runs under TSan in CI.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/ids.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "util/string_util.h"
#include "workload/event_codec.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace comptx::service {
namespace {

using workload::AppendEventBinary;
using workload::AppendVarint;
using workload::ReadEventBinary;
using workload::ReadVarint;

// ------------------------------------------------------------- codec

TEST(VarintTest, RoundTripsBoundaryValues) {
  const std::vector<uint64_t> values = {
      0, 1, 127, 128, 129, 16383, 16384, 1u << 20, (1ull << 32) - 1,
      1ull << 32, (1ull << 63), ~0ull, kInvalidIndex};
  std::string buf;
  for (uint64_t v : values) AppendVarint(buf, v);
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(ReadVarint(buf, pos, got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, TruncationAndOverflowAreRejected) {
  std::string buf;
  AppendVarint(buf, ~0ull);
  for (size_t cut = 0; cut + 1 < buf.size(); ++cut) {
    const std::string prefix = buf.substr(0, cut);
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(ReadVarint(prefix, pos, v).ok()) << cut;
  }
  // An 11-byte encoding (or a 10th byte carrying bits past 2^64) is not
  // a 64-bit varint, however it is padded.
  const std::string overlong(11, '\x80');
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(ReadVarint(overlong, pos, v).ok());
}

TEST(EventCodecTest, EveryKindRoundTrips) {
  std::vector<workload::TraceEvent> events;
  {
    workload::TraceEvent e;
    e.kind = workload::TraceEventKind::kSchedule;
    e.name = "s0";
    events.push_back(e);
  }
  {
    workload::TraceEvent e;
    e.kind = workload::TraceEventKind::kRoot;
    e.schedule = 0;
    e.name = "a root with spaces";
    events.push_back(e);
  }
  {
    workload::TraceEvent e;
    e.kind = workload::TraceEventKind::kSub;
    e.parent = 1;
    e.schedule = 0;
    e.name = "";
    events.push_back(e);
  }
  {
    workload::TraceEvent e;
    e.kind = workload::TraceEventKind::kLeaf;
    e.parent = 2;
    e.name = "leaf";
    events.push_back(e);
  }
  for (auto kind : {workload::TraceEventKind::kConflict,
                    workload::TraceEventKind::kWeakOutput,
                    workload::TraceEventKind::kStrongOutput}) {
    workload::TraceEvent e;
    e.kind = kind;
    e.a = 3;
    e.b = kInvalidIndex;  // unused fields must survive verbatim
    events.push_back(e);
  }
  for (auto kind : {workload::TraceEventKind::kWeakInput,
                    workload::TraceEventKind::kStrongInput}) {
    workload::TraceEvent e;
    e.kind = kind;
    e.schedule = 0;
    e.a = 1;
    e.b = 4;
    events.push_back(e);
  }
  for (auto kind : {workload::TraceEventKind::kIntraWeak,
                    workload::TraceEventKind::kIntraStrong}) {
    workload::TraceEvent e;
    e.kind = kind;
    e.parent = 1;
    e.a = 2;
    e.b = 3;
    events.push_back(e);
  }
  {
    workload::TraceEvent e;
    e.kind = workload::TraceEventKind::kCommit;
    e.parent = 1;
    events.push_back(e);
  }

  std::string buf;
  for (const auto& e : events) AppendEventBinary(buf, e);
  size_t pos = 0;
  for (const auto& expected : events) {
    workload::TraceEvent got;
    ASSERT_TRUE(ReadEventBinary(buf, pos, got).ok());
    EXPECT_EQ(got.kind, expected.kind);
    EXPECT_EQ(got.name, expected.name);
    EXPECT_EQ(got.schedule, expected.schedule);
    EXPECT_EQ(got.parent, expected.parent);
    EXPECT_EQ(got.a, expected.a);
    EXPECT_EQ(got.b, expected.b);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(EventCodecTest, UnknownKindAndTruncationAreRejected) {
  std::string buf;
  buf.push_back(static_cast<char>(0x7f));  // no such TraceEventKind
  size_t pos = 0;
  workload::TraceEvent event;
  EXPECT_FALSE(ReadEventBinary(buf, pos, event).ok());

  workload::TraceEvent root;
  root.kind = workload::TraceEventKind::kRoot;
  root.schedule = 0;
  root.name = "hello";
  std::string packed;
  AppendEventBinary(packed, root);
  for (size_t cut = 0; cut < packed.size(); ++cut) {
    const std::string prefix = packed.substr(0, cut);
    size_t p = 0;
    workload::TraceEvent e;
    EXPECT_FALSE(ReadEventBinary(prefix, p, e).ok()) << cut;
  }
}

/// One event of every TraceEventKind, with references that need one to
/// five varint bytes.
std::vector<workload::TraceEvent> EveryKindBatch() {
  using workload::TraceEventKind;
  std::vector<workload::TraceEvent> events;
  const auto add = [&](TraceEventKind kind, const char* name,
                       uint32_t schedule, uint32_t parent, uint32_t a,
                       uint32_t b) {
    workload::TraceEvent e;
    e.kind = kind;
    e.name = name;
    e.schedule = schedule;
    e.parent = parent;
    e.a = a;
    e.b = b;
    events.push_back(e);
  };
  const uint32_t none = kInvalidIndex;
  add(TraceEventKind::kSchedule, "S0", none, none, none, none);
  add(TraceEventKind::kRoot, "T1", 0, none, none, none);
  add(TraceEventKind::kSub, "sub", 1, 130, none, none);
  add(TraceEventKind::kLeaf, "x", none, 2, none, none);
  add(TraceEventKind::kConflict, "", none, none, 3, 16384);
  add(TraceEventKind::kWeakOutput, "", none, none, 127, 128);
  add(TraceEventKind::kStrongOutput, "", none, none, 5, 6);
  add(TraceEventKind::kWeakInput, "", 1, none, 7, 8);
  add(TraceEventKind::kStrongInput, "", 2, none, 9, 10);
  add(TraceEventKind::kIntraWeak, "", none, 11, 12, 13);
  add(TraceEventKind::kIntraStrong, "", none, 14, 15, 300);
  add(TraceEventKind::kCommit, "", none, 1, none, none);
  add(TraceEventKind::kCommitThrough, "", none, none, 70000, none);
  add(TraceEventKind::kAdtDecl, "counter", none, none, none, none);
  add(TraceEventKind::kAdtOp, "inc", none, none, 0, none);
  add(TraceEventKind::kCommute, "", none, none, 0, 1);
  add(TraceEventKind::kClash, "", none, none, 1, 2);
  add(TraceEventKind::kTag, "", none, 3, 1, 4294967294u);
  return events;
}

std::string Hex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

TEST(EventCodecTest, BatchAppendOfEveryKindKeepsItsCapturedBytes) {
  // Captured from the v2 encoder before the event codec moved to
  // workload/: the wire format must not change by a single byte.
  const std::string golden =
      "43545832020300002a0000000000000056000000120002533001000254310282"
      "010103737562030201780403808001057f8001060506070107080802090a090b"
      "0c0d0a0e0fac020b010cf0a2040d07636f756e7465720e0003696e630f000110"
      "0102110301feffffff0f";
  Request request;
  request.kind = CommandKind::kAppend;
  request.session = 42;
  request.events = EveryKindBatch();
  ASSERT_EQ(request.events.size(),
            static_cast<size_t>(workload::TraceEventKind::kTag) + 1);
  const std::string bytes = EncodeRequestFrame(WireProtocol::kV2, request);
  EXPECT_EQ(Hex(bytes), golden);

  FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  WireFrame frame;
  auto ready = parser.Next(frame);
  ASSERT_TRUE(ready.ok() && *ready);
  auto decoded = DecodeRequestFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->events.size(), request.events.size());
  for (size_t i = 0; i < request.events.size(); ++i) {
    EXPECT_EQ(workload::FormatTraceEvent(decoded->events[i]),
              workload::FormatTraceEvent(request.events[i]))
        << i;
  }
}

TEST(EventCodecTest, EveryTruncationAndBitFlipOfABatchIsAnErrorOrValid) {
  // Hostile payloads never crash the decoder (the ASan job runs this):
  // every proper prefix of the every-kind BATCH_APPEND payload is an
  // error, and every single-bit flip either fails or decodes to valid
  // events, ones whose encoding decodes back to the same encoding.  (A
  // flip can leave a non-minimal varint, which decodes but re-encodes
  // shorter, so the flipped bytes themselves need not round-trip.)
  Request request;
  request.kind = CommandKind::kAppend;
  request.session = 42;
  request.events = EveryKindBatch();
  const std::string bytes = EncodeRequestFrame(WireProtocol::kV2, request);
  const std::string payload = bytes.substr(kWireHeaderBytes);
  WireFrame frame;
  frame.protocol = WireProtocol::kV2;
  frame.opcode = Opcode::kBatchAppend;
  frame.session = 42;

  for (size_t cut = 0; cut < payload.size(); ++cut) {
    frame.payload = payload.substr(0, cut);
    EXPECT_FALSE(DecodeRequestFrame(frame).ok()) << "cut " << cut;
  }
  size_t decoded = 0;
  for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
    frame.payload = payload;
    frame.payload[bit / 8] =
        static_cast<char>(frame.payload[bit / 8] ^ (1u << (bit % 8)));
    auto result = DecodeRequestFrame(frame);
    if (!result.ok()) continue;
    ++decoded;
    Request valid = *std::move(result);
    valid.session = frame.session;
    const std::string encoded = EncodeRequestFrame(WireProtocol::kV2, valid);
    FrameParser parser;
    parser.Feed(encoded.data(), encoded.size());
    WireFrame again;
    auto ready = parser.Next(again);
    ASSERT_TRUE(ready.ok() && *ready) << "bit " << bit;
    auto round = DecodeRequestFrame(again);
    ASSERT_TRUE(round.ok()) << "bit " << bit;
    EXPECT_EQ(Hex(EncodeRequestFrame(WireProtocol::kV2, *round)),
              Hex(encoded))
        << "bit " << bit;
  }
  // Flips inside reference values keep the batch decodable.
  EXPECT_GT(decoded, 0u);
}

// ------------------------------------------------------- frame parser

std::string PingFrame(WireProtocol protocol) {
  Request ping;
  ping.kind = CommandKind::kPing;
  return EncodeRequestFrame(protocol, ping);
}

TEST(FrameParserTest, ByteAtATimeDeliveryYieldsWholeFrames) {
  for (WireProtocol protocol : {WireProtocol::kV1, WireProtocol::kV2}) {
    const std::string bytes = PingFrame(protocol);
    FrameParser parser;
    WireFrame frame;
    for (size_t i = 0; i + 1 < bytes.size(); ++i) {
      parser.Feed(&bytes[i], 1);
      auto ready = parser.Next(frame);
      ASSERT_TRUE(ready.ok()) << i;
      EXPECT_FALSE(*ready) << "frame complete after " << i + 1 << " of "
                           << bytes.size() << " bytes";
    }
    parser.Feed(&bytes[bytes.size() - 1], 1);
    auto ready = parser.Next(frame);
    ASSERT_TRUE(ready.ok());
    ASSERT_TRUE(*ready);
    EXPECT_EQ(frame.protocol, protocol);
    auto request = DecodeRequestFrame(frame);
    ASSERT_TRUE(request.ok());
    EXPECT_EQ(request->kind, CommandKind::kPing);
    EXPECT_EQ(parser.buffered(), 0u);
  }
}

TEST(FrameParserTest, MixedProtocolsInterleaveOnOneStream) {
  const std::string stream = PingFrame(WireProtocol::kV1) +
                             PingFrame(WireProtocol::kV2) +
                             PingFrame(WireProtocol::kV1);
  FrameParser parser;
  parser.Feed(stream.data(), stream.size());
  const std::vector<WireProtocol> expected = {
      WireProtocol::kV1, WireProtocol::kV2, WireProtocol::kV1};
  for (WireProtocol protocol : expected) {
    WireFrame frame;
    auto ready = parser.Next(frame);
    ASSERT_TRUE(ready.ok());
    ASSERT_TRUE(*ready);
    EXPECT_EQ(frame.protocol, protocol);
  }
  WireFrame frame;
  auto ready = parser.Next(frame);
  ASSERT_TRUE(ready.ok());
  EXPECT_FALSE(*ready);
}

TEST(FrameParserTest, HostilePrefixesAreTerminalErrors) {
  // Each case must fail without ever producing a frame.
  const std::vector<std::string> hostile = {
      "X",                      // neither a digit nor the v2 magic
      "99999999999999\n",       // v1 length overflows the prefix budget
      "10485761\n",             // v1 length above kMaxFrameBytes
      std::string("9x\n"),      // non-digit inside a v1 prefix
  };
  for (const std::string& bytes : hostile) {
    FrameParser parser;
    parser.Feed(bytes.data(), bytes.size());
    WireFrame frame;
    auto ready = parser.Next(frame);
    EXPECT_FALSE(ready.ok()) << bytes;
  }
}

TEST(FrameParserTest, HostileV2HeadersAreTerminalErrors) {
  const std::string good = PingFrame(WireProtocol::kV2);
  // Wrong magic (second byte corrupted: first byte still 'C' so the v2
  // path is entered), wrong version, non-zero flags, oversized length.
  {
    std::string bad = good;
    bad[1] = 'X';
    FrameParser parser;
    parser.Feed(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(parser.Next(frame).ok());
  }
  {
    std::string bad = good;
    bad[4] = 9;  // version
    FrameParser parser;
    parser.Feed(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(parser.Next(frame).ok());
  }
  {
    std::string bad = good;
    bad[6] = 1;  // flags must be zero
    FrameParser parser;
    parser.Feed(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(parser.Next(frame).ok());
  }
  {
    std::string bad = good;
    bad[19] = 0x7f;  // length high byte: ~2GB declared payload
    FrameParser parser;
    parser.Feed(bad.data(), bad.size());
    WireFrame frame;
    EXPECT_FALSE(parser.Next(frame).ok());
  }
}

TEST(FrameParserTest, BatchCountLargerThanPayloadIsRejected) {
  // A BATCH_APPEND whose varint count promises more events than the
  // payload could hold must fail in DecodeRequestFrame, not allocate.
  WireFrame frame;
  frame.protocol = WireProtocol::kV2;
  frame.opcode = Opcode::kBatchAppend;
  frame.session = 7;
  AppendVarint(frame.payload, 1u << 30);
  EXPECT_FALSE(DecodeRequestFrame(frame).ok());
}

// ------------------------------------------------- live-socket framing

std::vector<workload::TraceEvent> GeneratedEvents(uint32_t roots,
                                                  uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kLayeredDag;
  spec.topology.depth = 3;
  spec.topology.branches = 2;
  spec.topology.roots = roots;
  spec.topology.fanout = 2;
  spec.execution.conflict_prob = 0.15;
  spec.execution.intra_weak_prob = 0.2;
  auto cs = workload::GenerateSystem(spec, seed);
  EXPECT_TRUE(cs.ok()) << cs.status().ToString();
  auto text = workload::SaveTrace(*cs);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  auto events = workload::ParseTraceEvents(*text);
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  return std::move(events).value();
}

/// A listening server plus a raw connected socket for hand-rolled frames.
struct LiveServer {
  explicit LiveServer(size_t io_threads = 1) {
    ServerOptions options;
    options.workers = 2;
    options.io_threads = io_threads;
    server = std::make_unique<CertificationServer>(options);
    EXPECT_TRUE(server->Listen(endpoint).ok());
  }
  ~LiveServer() { server->Shutdown(); }

  Socket RawConnect() {
    auto socket = Connect(endpoint);
    EXPECT_TRUE(socket.ok()) << socket.status().ToString();
    return std::move(*socket);
  }

  std::unique_ptr<CertificationServer> server;
  Endpoint endpoint;
};

StatusOr<Response> ReadResponse(int fd, FrameParser& parser) {
  auto frame = ReadWireFrame(fd, parser);
  if (!frame.ok()) return frame.status();
  return DecodeResponseFrame(*frame);
}

TEST(EventLoopFramingTest, OneBytePerWriteClientGetsServed) {
  LiveServer live;
  Socket socket = live.RawConnect();
  for (WireProtocol protocol : {WireProtocol::kV1, WireProtocol::kV2}) {
    const std::string bytes = PingFrame(protocol);
    for (char byte : bytes) {
      ASSERT_EQ(::send(socket.fd(), &byte, 1, 0), 1);
      std::this_thread::yield();
    }
    FrameParser parser;
    auto response = ReadResponse(socket.fd(), parser);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->ok);
  }
}

TEST(EventLoopFramingTest, ProtocolsAutoDetectPerFrameOnOneConnection) {
  LiveServer live;
  Socket socket = live.RawConnect();
  // v1 then v2 then v1 on the same connection: each response must come
  // back framed in its request's protocol.
  const std::string burst = PingFrame(WireProtocol::kV1) +
                            PingFrame(WireProtocol::kV2) +
                            PingFrame(WireProtocol::kV1);
  ASSERT_TRUE(WriteWireBytes(socket.fd(), burst).ok());
  FrameParser parser;
  const std::vector<WireProtocol> expected = {
      WireProtocol::kV1, WireProtocol::kV2, WireProtocol::kV1};
  for (WireProtocol protocol : expected) {
    auto frame = ReadWireFrame(socket.fd(), parser);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->protocol, protocol);
    auto response = DecodeResponseFrame(*frame);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok);
  }
}

TEST(EventLoopFramingTest, OversizedDeclaredLengthGetsErrorThenHangup) {
  LiveServer live;
  {
    // v1: a prefix above kMaxFrameBytes.
    Socket socket = live.RawConnect();
    const std::string huge = "999999999\n";
    ASSERT_TRUE(WriteWireBytes(socket.fd(), huge).ok());
    FrameParser parser;
    auto response = ReadResponse(socket.fd(), parser);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->error_code, "bad_request");
    // The connection is doomed after a framing violation.
    auto eof = ReadWireFrame(socket.fd(), parser);
    EXPECT_FALSE(eof.ok());
  }
  {
    // v2: a valid header declaring a ~2GB payload.
    Socket socket = live.RawConnect();
    std::string bytes = PingFrame(WireProtocol::kV2);
    bytes[19] = 0x7f;
    ASSERT_TRUE(WriteWireBytes(socket.fd(), bytes).ok());
    FrameParser parser;
    auto response = ReadResponse(socket.fd(), parser);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok);
    auto eof = ReadWireFrame(socket.fd(), parser);
    EXPECT_FALSE(eof.ok());
  }
  {
    // Garbage first byte: not a digit, not the magic.
    Socket socket = live.RawConnect();
    const std::string garbage = "hello there\n";
    ASSERT_TRUE(WriteWireBytes(socket.fd(), garbage).ok());
    FrameParser parser;
    auto response = ReadResponse(socket.fd(), parser);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok);
    auto eof = ReadWireFrame(socket.fd(), parser);
    EXPECT_FALSE(eof.ok());
  }
}

TEST(EventLoopFramingTest, PipelinedRequestsAnswerInOrder) {
  LiveServer live;
  Socket socket = live.RawConnect();
  // OPEN + APPEND + QUERY + PING pipelined in one write: the replies
  // must come back in request order (OPEN's id is 1 on a fresh server,
  // which the APPEND/QUERY frames bake in).
  const auto events = GeneratedEvents(3, 99);
  Request open;
  open.kind = CommandKind::kOpen;
  Request append;
  append.kind = CommandKind::kAppend;
  append.session = 1;
  append.events = events;
  Request query;
  query.kind = CommandKind::kQuery;
  query.session = 1;
  Request ping;
  ping.kind = CommandKind::kPing;
  const std::string burst = EncodeRequestFrame(WireProtocol::kV2, open) +
                            EncodeRequestFrame(WireProtocol::kV2, append) +
                            EncodeRequestFrame(WireProtocol::kV2, query) +
                            EncodeRequestFrame(WireProtocol::kV2, ping);
  ASSERT_TRUE(WriteWireBytes(socket.fd(), burst).ok());

  FrameParser parser;
  auto opened = ReadResponse(socket.fd(), parser);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->ok);
  ASSERT_EQ(opened->FieldInt("session"), 1u);
  auto appended = ReadResponse(socket.fd(), parser);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  ASSERT_TRUE(appended->ok);
  EXPECT_EQ(appended->FieldInt("queued"), events.size());
  auto queried = ReadResponse(socket.fd(), parser);
  ASSERT_TRUE(queried.ok()) << queried.status().ToString();
  ASSERT_TRUE(queried->ok);
  EXPECT_EQ(queried->FieldInt("accepted") + queried->FieldInt("rejected"),
            events.size());
  auto ponged = ReadResponse(socket.fd(), parser);
  ASSERT_TRUE(ponged.ok()) << ponged.status().ToString();
  EXPECT_TRUE(ponged->ok);
}

TEST(EventLoopFramingTest, BatchAppendMatchesSingleEventAppends) {
  LiveServer live;
  const auto events = GeneratedEvents(5, 1234);

  auto v1 = ServiceClient::Dial(live.endpoint, WireProtocol::kV1);
  ASSERT_TRUE(v1.ok());
  auto v1_session = v1->Open();
  ASSERT_TRUE(v1_session.ok());
  for (const auto& event : events) {
    auto queued = v1->Append(*v1_session, {event});
    ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  }
  auto v1_verdict = v1->Close(*v1_session);
  ASSERT_TRUE(v1_verdict.ok());

  auto v2 = ServiceClient::Dial(live.endpoint, WireProtocol::kV2);
  ASSERT_TRUE(v2.ok());
  auto v2_session = v2->Open();
  ASSERT_TRUE(v2_session.ok());
  auto queued = v2->Append(*v2_session, events);  // one BATCH_APPEND frame
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_EQ(*queued, events.size());
  auto v2_verdict = v2->Close(*v2_session);
  ASSERT_TRUE(v2_verdict.ok());

  EXPECT_EQ(v1_verdict->certifiable, v2_verdict->certifiable);
  EXPECT_EQ(v1_verdict->events_accepted, v2_verdict->events_accepted);
  EXPECT_EQ(v1_verdict->events_rejected, v2_verdict->events_rejected);
}

TEST(EventLoopFramingTest, StatsExposeCertifierLiveNodes) {
  LiveServer live;
  auto client = ServiceClient::Dial(live.endpoint, WireProtocol::kV2);
  ASSERT_TRUE(client.ok());
  auto session = client->Open();
  ASSERT_TRUE(session.ok());
  const auto events = GeneratedEvents(4, 77);
  ASSERT_TRUE(client->Append(*session, events).ok());
  auto verdict = client->Query(*session);  // drain barrier
  ASSERT_TRUE(verdict.ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("certifier_live_nodes"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("certifier_prune_passes"), std::string::npos);
  EXPECT_NE(stats->find("certifier_pruned_nodes"), std::string::npos);
  EXPECT_NE(stats->find("active_connections"), std::string::npos);
  // The session is live and drained: its nodes must be on the gauge.
  const size_t at = stats->find("certifier_live_nodes");
  const size_t eol = stats->find('\n', at);
  const std::string line = stats->substr(at, eol - at);
  EXPECT_EQ(line.find(" 0"), std::string::npos) << line;
  ASSERT_TRUE(client->Close(*session).ok());
}

TEST(EventLoopFramingTest, QueryShowsAWindowPinnedByAnOpenRoot) {
  // Root P never commits; a chain of roots behind it commits each
  // predecessor as soon as its successor is ordered after it.  The chain
  // is pruned as it goes, so live_nodes stays small, but P keeps the
  // oldest live id at 0: window_span follows the stream, and QUERY must
  // show it.
  LiveServer live;
  auto client = ServiceClient::Dial(live.endpoint, WireProtocol::kV2);
  ASSERT_TRUE(client.ok());
  auto session = client->Open();
  ASSERT_TRUE(session.ok());
  std::vector<workload::TraceEvent> events;
  for (const std::string& line : {std::string("schedule S"),
                                  std::string("root 0 P"),
                                  std::string("leaf 0 p")}) {
    events.push_back(*workload::ParseTraceEventLine(line));
  }
  uint32_t next_id = 2;
  uint32_t prev_root = kInvalidIndex;
  uint32_t prev_leaf = kInvalidIndex;
  uint64_t previous_span = 0;
  for (uint32_t i = 0; i < 1200; ++i) {
    const uint32_t root = next_id++;
    const uint32_t leaf = next_id++;
    events.push_back(*workload::ParseTraceEventLine(StrCat("root 0 T", i)));
    events.push_back(
        *workload::ParseTraceEventLine(StrCat("leaf ", root, " x", i)));
    if (prev_leaf != kInvalidIndex) {
      events.push_back(*workload::ParseTraceEventLine(
          StrCat("conflict ", prev_leaf, " ", leaf)));
      events.push_back(*workload::ParseTraceEventLine(
          StrCat("weak_out ", prev_leaf, " ", leaf)));
      events.push_back(
          *workload::ParseTraceEventLine(StrCat("commit ", prev_root)));
    }
    prev_root = root;
    prev_leaf = leaf;
    if (i % 300 != 299) continue;
    ASSERT_TRUE(client->Append(*session, events).ok());
    events.clear();
    auto verdict = client->Query(*session);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_EQ(verdict->events_rejected, 0u);
    EXPECT_LE(verdict->live_nodes, 8u) << "after root " << i;
    EXPECT_EQ(verdict->window_span, next_id) << "after root " << i;
    EXPECT_GT(verdict->window_span, previous_span);
    previous_span = verdict->window_span;
  }
  ASSERT_TRUE(client->Close(*session).ok());
}

// ------------------------------------------------------------- stress

// Named ServiceStressTest so the TSan CI job's -R regex picks it up:
// many connections, each pipelining batched appends to its own session
// while a second wave of connections interleaves PINGs, then every
// verdict is checked against the single-connection answer.
TEST(ServiceStressTest, PipelinedBatchesAcrossConnectionsStayOrdered) {
  LiveServer live(/*io_threads=*/2);
  constexpr size_t kConnections = 8;
  constexpr size_t kPipelineDepth = 4;
  const auto events = GeneratedEvents(6, 2026);

  // Reference verdict from a plain sequential client.
  service::SessionVerdict reference;
  {
    auto client = ServiceClient::Dial(live.endpoint, WireProtocol::kV2);
    ASSERT_TRUE(client.ok());
    auto session = client->Open();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(client->Append(*session, events).ok());
    auto verdict = client->Close(*session);
    ASSERT_TRUE(verdict.ok());
    reference = *verdict;
  }

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const WireProtocol protocol =
          c % 2 == 0 ? WireProtocol::kV2 : WireProtocol::kV1;
      Socket socket = [&] {
        auto s = Connect(live.endpoint);
        EXPECT_TRUE(s.ok());
        return std::move(*s);
      }();
      FrameParser parser;
      // OPEN, then read the id.
      Request open;
      open.kind = CommandKind::kOpen;
      if (!WriteWireBytes(socket.fd(),
                          EncodeRequestFrame(protocol, open))
               .ok()) {
        ++failures;
        return;
      }
      auto opened = ReadResponse(socket.fd(), parser);
      if (!opened.ok() || !opened->ok) {
        ++failures;
        return;
      }
      const uint64_t session = opened->FieldInt("session");
      // Pipeline the whole stream as kPipelineDepth-frame bursts of
      // batched appends, reading the acks afterwards, interleaved with
      // PINGs that must answer in position.
      size_t cursor = 0;
      while (cursor < events.size()) {
        std::string burst;
        std::vector<size_t> sizes;
        for (size_t d = 0; d < kPipelineDepth && cursor < events.size();
             ++d) {
          const size_t n = std::min<size_t>(8, events.size() - cursor);
          Request append;
          append.kind = CommandKind::kAppend;
          append.session = session;
          append.events.assign(events.begin() + cursor,
                               events.begin() + cursor + n);
          burst += EncodeRequestFrame(protocol, append);
          sizes.push_back(n);
          cursor += n;
        }
        Request ping;
        ping.kind = CommandKind::kPing;
        burst += EncodeRequestFrame(protocol, ping);
        if (!WriteWireBytes(socket.fd(), burst).ok()) {
          ++failures;
          return;
        }
        for (size_t n : sizes) {
          auto ack = ReadResponse(socket.fd(), parser);
          if (!ack.ok() || !ack->ok || ack->FieldInt("queued") != n) {
            ++failures;
            return;
          }
        }
        auto pong = ReadResponse(socket.fd(), parser);
        if (!pong.ok() || !pong->ok) {
          ++failures;
          return;
        }
      }
      // CLOSE and compare with the reference verdict.
      Request close;
      close.kind = CommandKind::kClose;
      close.session = session;
      if (!WriteWireBytes(socket.fd(),
                          EncodeRequestFrame(protocol, close))
               .ok()) {
        ++failures;
        return;
      }
      auto closed = ReadResponse(socket.fd(), parser);
      if (!closed.ok() || !closed->ok ||
          (closed->FieldInt("certifiable") == 1) != reference.certifiable ||
          closed->FieldInt("accepted") != reference.events_accepted) {
        ++failures;
        return;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace comptx::service
