// Distributed composite certification (DESIGN.md §15): topology spec
// parsing, component-aligned trace partitioning, in-process two-server
// stream replication with the cross-node two-phase commit, and the
// cross-feature interop path (v1/v2 frames interleaved on one
// connection driving commit_through watermarks and ADT commutativity
// tags in the same session).
//
// The multi-process paths (fork/exec, SIGKILL + resubscribe-from-LSN)
// are covered by the comptx_topology CLI drill in test_cli.cc and the
// CI distributed-smoke job; here every server lives in-process so the
// suite stays fast and sanitizer-friendly.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "distributed/controller.h"
#include "distributed/topology.h"
#include "online/certifier.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "util/string_util.h"
#include "workload/trace.h"

namespace comptx {
namespace {

using service::CertificationServer;
using service::CommandKind;
using service::Endpoint;
using service::ServerOptions;
using service::ServiceClient;
using workload::TraceEvent;
using workload::TraceEventKind;

TraceEvent Make(TraceEventKind kind, std::string name = "",
                uint32_t schedule = kInvalidIndex,
                uint32_t parent = kInvalidIndex, uint32_t a = kInvalidIndex,
                uint32_t b = kInvalidIndex) {
  TraceEvent event;
  event.kind = kind;
  event.name = std::move(name);
  event.schedule = schedule;
  event.parent = parent;
  event.a = a;
  event.b = b;
  return event;
}

// ------------------------------------------------------- topology specs

TEST(TopologySpecTest, ParsesForkJoin) {
  auto spec = distributed::ParseTopologySpec(
      "# comptx-topology v1\n"
      "node root\n"
      "node left\n"
      "node right\n"
      "edge root left\n"
      "edge root right\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->nodes.size(), 3u);
  EXPECT_EQ(spec->root, spec->Find("root"));
  ASSERT_EQ(spec->leaves.size(), 2u);
  EXPECT_EQ(spec->children[spec->root].size(), 2u);
  EXPECT_EQ(spec->parent_of[spec->Find("left")], spec->root);
  EXPECT_EQ(spec->parent_of[spec->root], kInvalidIndex);
  EXPECT_EQ(spec->Find("nope"), kInvalidIndex);
}

TEST(TopologySpecTest, ParsesDeeperChain) {
  auto spec = distributed::ParseTopologySpec(
      "# comptx-topology v1\n"
      "node a\nnode b\nnode c\n"
      "edge a b\nedge b c\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->root, spec->Find("a"));
  ASSERT_EQ(spec->leaves.size(), 1u);
  EXPECT_EQ(spec->leaves[0], spec->Find("c"));
}

TEST(TopologySpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      // missing version header
      "node a\n",
      // duplicate node
      "# comptx-topology v1\nnode a\nnode a\n",
      // self edge
      "# comptx-topology v1\nnode a\nedge a a\n",
      // unknown child
      "# comptx-topology v1\nnode a\nedge a b\n",
      // two parents for c
      "# comptx-topology v1\nnode a\nnode b\nnode c\n"
      "edge a c\nedge b c\n",
      // two roots (forest, not a tree)
      "# comptx-topology v1\nnode a\nnode b\nnode c\nedge a b\n",
      // no nodes at all
      "# comptx-topology v1\n",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(distributed::ParseTopologySpec(text).ok())
        << "accepted malformed spec:\n"
        << text;
  }
}

// --------------------------------------------------- trace partitioning

TEST(GenerateGroupedTraceTest, DeterministicWithExactRootCount) {
  auto first = distributed::GenerateGroupedTrace(7, 20260814, 0.0);
  auto second = distributed::GenerateGroupedTrace(7, 20260814, 0.0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  size_t roots = 0;
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(workload::FormatTraceEvent((*first)[i]),
              workload::FormatTraceEvent((*second)[i]));
    if ((*first)[i].kind == TraceEventKind::kRoot) ++roots;
  }
  EXPECT_EQ(roots, 7u);
}

TEST(PartitionTraceTest, GroupsSpreadAndAccountingHolds) {
  auto trace = distributed::GenerateGroupedTrace(6, 20260814, 0.0);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  auto partition = distributed::PartitionTrace(*trace, 2, 2);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();

  // 6 roots in 3-root groups => 2 independent components, one per leaf.
  EXPECT_EQ(partition->components, 2u);
  ASSERT_EQ(partition->leaf_phases.size(), 2u);
  for (const auto& phases : partition->leaf_phases) {
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_FALSE(phases[0].empty());
  }
  EXPECT_EQ(partition->dropped_commits, 0u);

  // Every broadcast lands in every leaf's phase 0; the root dedups them
  // back to one copy, so the expected watermark counts broadcasts once
  // plus every non-broadcast event once.
  size_t broadcasts = 0;
  for (const auto& event : *trace) {
    if (event.kind == TraceEventKind::kSchedule ||
        event.kind == TraceEventKind::kAdtDecl ||
        event.kind == TraceEventKind::kAdtOp ||
        event.kind == TraceEventKind::kCommute ||
        event.kind == TraceEventKind::kClash) {
      ++broadcasts;
    }
  }
  EXPECT_EQ(partition->broadcast_events, broadcasts);
  ASSERT_FALSE(partition->expected_root_events.empty());
  EXPECT_EQ(partition->expected_root_events.back(), trace->size());
  ASSERT_FALSE(partition->roots_through.empty());
  EXPECT_EQ(partition->roots_through.back(), 6u);
  // Cumulative counters are monotone.
  for (size_t i = 1; i < partition->expected_root_events.size(); ++i) {
    EXPECT_GE(partition->expected_root_events[i],
              partition->expected_root_events[i - 1]);
    EXPECT_GE(partition->roots_through[i], partition->roots_through[i - 1]);
  }
}

TEST(PartitionTraceTest, LeafSlicesReplayCleanlyAfterRenumbering) {
  auto trace = distributed::GenerateGroupedTrace(6, 20260814, 0.0);
  ASSERT_TRUE(trace.ok());
  auto partition = distributed::PartitionTrace(*trace, 2, 2);
  ASSERT_TRUE(partition.ok());
  // Renumbered slices must be self-consistent executions: a fresh
  // certifier accepts every event of every phase in order.
  for (const auto& phases : partition->leaf_phases) {
    online::Certifier certifier{online::CertifierOptions{}};
    for (const auto& phase : phases) {
      for (const auto& event : phase) {
        const Status ingested = certifier.Ingest(event);
        EXPECT_TRUE(ingested.ok())
            << workload::FormatTraceEvent(event) << ": " << ingested;
      }
    }
    EXPECT_TRUE(certifier.Verdict().certifiable);
  }
}

TEST(PartitionTraceTest, CommitEventsAreDropped) {
  auto trace = distributed::GenerateGroupedTrace(3, 20260814, 0.0);
  ASSERT_TRUE(trace.ok());
  trace->push_back(Make(TraceEventKind::kCommitThrough, "", kInvalidIndex,
                        kInvalidIndex, /*a=*/1));
  auto partition = distributed::PartitionTrace(*trace, 1, 1);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_EQ(partition->dropped_commits, 1u);
  EXPECT_EQ(partition->expected_root_events.back(), trace->size() - 1);
}

TEST(PartitionTraceTest, SharedAdtInstanceUnionsComponents) {
  // Two otherwise unrelated single-root trees whose operations touch the
  // same ADT instance: the semantic conflict mask can derive conflicts
  // between them, so the partitioner must keep them on one leaf.
  std::vector<TraceEvent> trace;
  trace.push_back(Make(TraceEventKind::kSchedule, "s0"));
  trace.push_back(Make(TraceEventKind::kRoot, "r0", 0));
  trace.push_back(Make(TraceEventKind::kRoot, "r1", 0));
  trace.push_back(Make(TraceEventKind::kAdtDecl, "counter"));
  trace.push_back(Make(TraceEventKind::kAdtOp, "inc", kInvalidIndex,
                       kInvalidIndex, /*a=*/0));
  trace.push_back(Make(TraceEventKind::kTag, "", kInvalidIndex,
                       /*parent=*/0, /*a=*/0, /*b=*/7));
  trace.push_back(Make(TraceEventKind::kTag, "", kInvalidIndex,
                       /*parent=*/1, /*a=*/0, /*b=*/7));
  auto shared = distributed::PartitionTrace(trace, 2, 1);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_EQ(shared->components, 1u);

  // Distinct instances keep the trees separable.
  trace.back().b = 8;
  auto disjoint = distributed::PartitionTrace(trace, 2, 1);
  ASSERT_TRUE(disjoint.ok());
  EXPECT_EQ(disjoint->components, 2u);
}

TEST(PartitionTraceTest, DanglingReferenceIsRejected) {
  std::vector<TraceEvent> trace;
  trace.push_back(Make(TraceEventKind::kSchedule, "s0"));
  trace.push_back(Make(TraceEventKind::kRoot, "r0", 0));
  trace.push_back(Make(TraceEventKind::kConflict, "", kInvalidIndex,
                       kInvalidIndex, /*a=*/0, /*b=*/5));
  EXPECT_FALSE(distributed::PartitionTrace(trace, 1, 1).ok());
}

// ------------------------------------- in-process two-server topology

struct Node {
  CertificationServer server;
  distributed::NodeController controller;
  Endpoint endpoint;

  explicit Node(const ServerOptions& options = ServerOptions{})
      : server(options), controller(&server, {}) {
    server.SetDistributedHandler([this](const service::Request& request) {
      return controller.Handle(request);
    });
  }

  Status Listen() { return server.Listen(endpoint); }
};

TEST(DistributedTwoServerTest, StreamReplicationAndTwoPhaseCommit) {
  Node child;
  Node parent;
  ASSERT_TRUE(child.Listen().ok());
  ASSERT_TRUE(parent.Listen().ok());

  auto child_client =
      ServiceClient::Dial(child.endpoint, service::WireProtocol::kV2);
  ASSERT_TRUE(child_client.ok()) << child_client.status().ToString();
  auto child_session = child_client->Open("stream=1");
  ASSERT_TRUE(child_session.ok()) << child_session.status().ToString();

  auto parent_client =
      ServiceClient::Dial(parent.endpoint, service::WireProtocol::kV2);
  ASSERT_TRUE(parent_client.ok());
  auto parent_session = parent_client->Open("stream=1");
  ASSERT_TRUE(parent_session.ok());

  auto attached = parent_client->Command(
      CommandKind::kAttach, *parent_session,
      StrCat("edge=1 host=127.0.0.1 port=", child.endpoint.port,
             " remote=", *child_session));
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  ASSERT_TRUE(attached->ok) << attached->error_code << ": "
                            << attached->error_message;

  auto trace = distributed::GenerateGroupedTrace(3, 20260814, 0.0);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(child_client->Append(*child_session, *trace).ok());

  // Barrier: wait until the parent's stream holds every replicated
  // event (STREAM max=0 long-polls on the watermark).
  const uint64_t expected = trace->size();
  uint64_t watermark = 0;
  for (int spin = 0; spin < 40 && watermark < expected; ++spin) {
    auto streamed = parent_client->Command(
        CommandKind::kStream, *parent_session,
        StrCat("from=", expected, " max=0 wait_ms=500 sub=0"));
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ASSERT_TRUE(streamed->ok);
    watermark = static_cast<uint64_t>(streamed->FieldInt("watermark"));
  }
  ASSERT_EQ(watermark, expected) << "replication stalled";

  // Two-phase commit from the parent: PREPARE recursively seals the
  // child, then the local commit_through lands and the verdict reports
  // the advanced watermark on both nodes.
  auto prepared = parent_client->Command(CommandKind::kPrepare,
                                         *parent_session, "k=3");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->ok) << prepared->error_code << ": "
                            << prepared->error_message;
  auto decided = parent_client->Command(CommandKind::kDecide,
                                        *parent_session, "k=3");
  ASSERT_TRUE(decided.ok());
  EXPECT_TRUE(decided->ok);

  auto parent_verdict = parent_client->Query(*parent_session);
  ASSERT_TRUE(parent_verdict.ok());
  EXPECT_EQ(parent_verdict->events_rejected, 0u);
  EXPECT_EQ(parent_verdict->commit_watermark, 3u);
  auto child_verdict = child_client->Query(*child_session);
  ASSERT_TRUE(child_verdict.ok());
  EXPECT_EQ(child_verdict->commit_watermark, 3u);

  // Differential: a single-process certifier fed the same events and
  // watermark agrees with the distributed verdict.
  online::Certifier replay{online::CertifierOptions{}};
  for (const auto& event : *trace) ASSERT_TRUE(replay.Ingest(event).ok());
  ASSERT_TRUE(
      replay
          .Ingest(Make(TraceEventKind::kCommitThrough, "", kInvalidIndex,
                       kInvalidIndex, /*a=*/3))
          .ok());
  EXPECT_EQ(parent_verdict->certifiable, replay.Verdict().certifiable);

  parent.server.Shutdown();
  child.server.Shutdown();
}

TEST(DistributedTwoServerTest, AttachRequiresStreamSessions) {
  Node child;
  Node parent;
  ASSERT_TRUE(child.Listen().ok());
  ASSERT_TRUE(parent.Listen().ok());
  auto parent_client =
      ServiceClient::Dial(parent.endpoint, service::WireProtocol::kV2);
  ASSERT_TRUE(parent_client.ok());
  auto plain = parent_client->Open();  // no stream=1
  ASSERT_TRUE(plain.ok());
  auto attached = parent_client->Command(
      CommandKind::kAttach, *plain,
      StrCat("edge=1 host=127.0.0.1 port=", child.endpoint.port,
             " remote=1"));
  ASSERT_TRUE(attached.ok());
  EXPECT_FALSE(attached->ok);
  parent.server.Shutdown();
  child.server.Shutdown();
}

TEST(NodeControllerTest, RejectsOutOfRangePortsAndUnknownKeys) {
  Node node;
  service::Request open;
  open.kind = CommandKind::kOpen;
  open.options = "stream=1";
  const service::Response opened = node.server.Handle(open);
  ASSERT_TRUE(opened.ok) << opened.error_message;
  const uint64_t session = std::stoull(opened.fields.at(0).second);
  const std::pair<CommandKind, std::string> bad[] = {
      // A port must fit 16 bits, not wrap (70000 would dial 4464).
      {CommandKind::kAttach, "edge=1 host=127.0.0.1 port=70000 remote=1"},
      {CommandKind::kAttach, "edge=1 host=127.0.0.1 port=1 remote=1 prefix=a"},
      {CommandKind::kDetach, "edge=1 cursor=2"},
      {CommandKind::kPrepare, "k=1 edge=1"},
      {CommandKind::kDecide, "k=1 ke=1"},
  };
  for (const auto& [kind, options] : bad) {
    service::Request request;
    request.kind = kind;
    request.session = session;
    request.options = options;
    const service::Response response = node.controller.Handle(request);
    EXPECT_FALSE(response.ok) << options;
    EXPECT_EQ(response.error_code, "bad_request")
        << options << ": " << response.error_message;
  }
  node.server.Shutdown();
}

// --------------------------------------------------- cross-feature interop

// One TCP connection, frames alternating between the v1 textual and v2
// binary protocols, driving a single session that uses commit_through
// watermarks AND ADT commutativity tags.  The server answers each frame
// in the protocol it arrived in, and both views of the session agree.
TEST(CrossFeatureInteropTest, MixedProtocolFramesShareOneSession) {
  CertificationServer server{ServerOptions{}};
  Endpoint endpoint;
  ASSERT_TRUE(server.Listen(endpoint).ok());
  auto socket = service::Connect(endpoint);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  service::FrameParser parser;

  const auto round_trip =
      [&](service::WireProtocol protocol,
          const service::Request& request) -> service::Response {
    const std::string bytes = service::EncodeRequestFrame(protocol, request);
    EXPECT_TRUE(service::WriteWireBytes(socket->fd(), bytes).ok());
    auto frame = service::ReadWireFrame(socket->fd(), parser);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->protocol, protocol);  // answered in kind
    auto response = service::DecodeResponseFrame(*frame);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return *response;
  };

  // OPEN over v1.
  service::Request open;
  open.kind = CommandKind::kOpen;
  auto opened = round_trip(service::WireProtocol::kV1, open);
  ASSERT_TRUE(opened.ok) << opened.error_code;
  const uint64_t session = opened.FieldInt("session");

  // A semantic execution: two roots whose only interaction is through
  // commuting operations on a shared ADT instance.
  std::vector<TraceEvent> events;
  events.push_back(Make(TraceEventKind::kSchedule, "s0"));
  events.push_back(Make(TraceEventKind::kRoot, "r0", 0));
  events.push_back(Make(TraceEventKind::kRoot, "r1", 0));
  events.push_back(Make(TraceEventKind::kAdtDecl, "counter"));
  events.push_back(Make(TraceEventKind::kAdtOp, "inc", kInvalidIndex,
                        kInvalidIndex, /*a=*/0));
  events.push_back(Make(TraceEventKind::kAdtOp, "dec", kInvalidIndex,
                        kInvalidIndex, /*a=*/0));
  events.push_back(Make(TraceEventKind::kCommute, "", kInvalidIndex,
                        kInvalidIndex, /*a=*/0, /*b=*/1));
  events.push_back(Make(TraceEventKind::kTag, "", kInvalidIndex,
                        /*parent=*/0, /*a=*/0, /*b=*/42));
  events.push_back(Make(TraceEventKind::kTag, "", kInvalidIndex,
                        /*parent=*/1, /*a=*/1, /*b=*/42));

  // First half over v2 (batch append), second half over v1, then a
  // commit_through watermark over v2 — one session throughout.
  const size_t half = events.size() / 2;
  service::Request append_v2;
  append_v2.kind = CommandKind::kAppend;
  append_v2.session = session;
  append_v2.events.assign(events.begin(), events.begin() + half);
  ASSERT_TRUE(round_trip(service::WireProtocol::kV2, append_v2).ok);

  service::Request append_v1;
  append_v1.kind = CommandKind::kAppend;
  append_v1.session = session;
  append_v1.events.assign(events.begin() + half, events.end());
  ASSERT_TRUE(round_trip(service::WireProtocol::kV1, append_v1).ok);

  service::Request commit;
  commit.kind = CommandKind::kAppend;
  commit.session = session;
  commit.events.push_back(Make(TraceEventKind::kCommitThrough, "",
                               kInvalidIndex, kInvalidIndex, /*a=*/2));
  ASSERT_TRUE(round_trip(service::WireProtocol::kV2, commit).ok);

  // QUERY over both protocols: identical session state either way.
  service::Request query;
  query.kind = CommandKind::kQuery;
  query.session = session;
  auto v1_view = round_trip(service::WireProtocol::kV1, query);
  auto v2_view = round_trip(service::WireProtocol::kV2, query);
  ASSERT_TRUE(v1_view.ok);
  ASSERT_TRUE(v2_view.ok);
  EXPECT_EQ(v1_view.FieldInt("accepted"), v2_view.FieldInt("accepted"));
  EXPECT_EQ(v1_view.FieldInt("rejected"), 0);
  EXPECT_EQ(v1_view.FieldInt("certifiable"), v2_view.FieldInt("certifiable"));
  EXPECT_EQ(v1_view.FieldInt("commit_watermark"), 2);
  EXPECT_EQ(v2_view.FieldInt("commit_watermark"), 2);
  EXPECT_EQ(v1_view.FieldInt("certifiable"), 1);

  server.Shutdown();
}

}  // namespace
}  // namespace comptx
