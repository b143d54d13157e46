// Tests for the src/service subsystem (ctest label `service`): metrics
// primitives, wire-protocol round trips, the in-process server API
// checked against the batch Comp-C checker, admission control, idle
// eviction, drain-on-shutdown accounting, the TCP loopback path through
// ServiceClient, and two concurrency suites (ServiceStress,
// CertifierConcurrency) that the TSan CI job runs under
// -DCOMPTX_SANITIZE=thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/correctness.h"
#include "durability/recovery.h"
#include "online/certifier.h"
#include "util/string_util.h"
#include "service/client.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace comptx::service {
namespace {

// ------------------------------------------------------------- metrics

TEST(LatencyHistogramTest, BucketMappingIsMonotoneAndInverts) {
  size_t prev = 0;
  for (uint64_t v : {0ull, 1ull, 2ull, 15ull, 16ull, 17ull, 100ull, 1000ull,
                     12345ull, 1000000ull, 123456789ull}) {
    const size_t bucket = LatencyHistogram::BucketFor(v);
    EXPECT_GE(bucket, prev) << v;
    EXPECT_GE(LatencyHistogram::BucketUpperBound(bucket), v) << v;
    prev = bucket;
  }
}

TEST(LatencyHistogramTest, QuantilesBoundRelativeError) {
  LatencyHistogram hist;
  for (uint64_t v = 1; v <= 10000; ++v) hist.Record(v);
  const auto snap = hist.Snap();
  EXPECT_EQ(snap.count, 10000u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_GE(snap.max, 10000u);
  // Log-linear buckets with 16 sub-buckets: <= 1/16 relative error, and
  // the reported value is a bucket upper bound (never an underestimate).
  EXPECT_GE(snap.p50, 5000u);
  EXPECT_LE(snap.p50, 5000u + 5000u / 16 + 1);
  EXPECT_GE(snap.p99, 9900u);
  EXPECT_LE(snap.p99, 9900u + 9900u / 16 + 1);
  EXPECT_NEAR(snap.mean, 5000.5, 1.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram hist;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (size_t i = 0; i < kPerThread; ++i) hist.Record(t * 100 + 1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist.Snap().count, kThreads * kPerThread);
}

TEST(LatencyHistogramTest, ParseTextRejectsWhatSerializeTextCannotWrite) {
  // A negative bucket count, a negative total, a count with no buckets
  // behind it, a signed bucket count, min > max, a short header, a zero or
  // repeated bucket, an out-of-range index and a bad mean.
  for (const char* bad :
       {"3 1 5 2.0 1:-1", "-1 1 5 2.0 1:1", "1 1 5 2.0", "2 1 5 2.0 1:+2",
        "1 5 1 2.0 3:1", "1 1 5", "1 1 5 2.0 1:0 2:1", "2 1 5 2.0 1:1 1:1",
        "1 1 5 2.0 100000:1", "1 1 5 x 3:1", "1 1 5 2.0 3:1 junk"}) {
    EXPECT_FALSE(LatencyHistogram::Snapshot::ParseText(bad).has_value())
        << bad;
  }
  // Counts that sum past 2^64 must not wrap into a match.
  EXPECT_FALSE(LatencyHistogram::Snapshot::ParseText(
                   "1 1 5 2.0 1:18446744073709551615 2:2")
                   .has_value());

  LatencyHistogram hist;
  for (uint64_t v : {3ull, 7ull, 7ull, 40ull, 1000ull}) hist.Record(v);
  const LatencyHistogram::Snapshot snap = hist.Snap();
  const auto parsed =
      LatencyHistogram::Snapshot::ParseText(snap.SerializeText());
  ASSERT_TRUE(parsed.has_value()) << snap.SerializeText();
  EXPECT_EQ(parsed->count, snap.count);
  EXPECT_EQ(parsed->min, snap.min);
  EXPECT_EQ(parsed->max, snap.max);
  EXPECT_EQ(parsed->p50, snap.p50);
  EXPECT_EQ(parsed->p99, snap.p99);
  EXPECT_EQ(parsed->SerializeText(), snap.SerializeText());
  const auto empty = LatencyHistogram::Snapshot::ParseText(
      LatencyHistogram::Snapshot{}.SerializeText());
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->count, 0u);
}

// ------------------------------------------------------------ protocol

TEST(ProtocolTest, RequestsRoundTrip) {
  Request open;
  open.kind = CommandKind::kOpen;
  open.options = "forgetting=true queue_capacity=64";
  auto parsed = ParseRequest(FormatRequest(open));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, CommandKind::kOpen);
  EXPECT_EQ(parsed->options, open.options);

  Request append;
  append.kind = CommandKind::kAppend;
  append.session = 42;
  workload::TraceEvent e;
  e.kind = workload::TraceEventKind::kSchedule;
  e.name = "S";
  append.events.push_back(e);
  e = {};
  e.kind = workload::TraceEventKind::kRoot;
  e.schedule = 0;
  e.name = "T";
  append.events.push_back(e);
  parsed = ParseRequest(FormatRequest(append));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->session, 42u);
  ASSERT_EQ(parsed->events.size(), 2u);
  EXPECT_EQ(parsed->events[1].name, "T");

  for (CommandKind kind : {CommandKind::kQuery, CommandKind::kClose,
                           CommandKind::kStats, CommandKind::kPing,
                           CommandKind::kShutdown}) {
    Request request;
    request.kind = kind;
    request.session = 7;
    parsed = ParseRequest(FormatRequest(request));
    ASSERT_TRUE(parsed.ok()) << CommandKindToString(kind);
    EXPECT_EQ(parsed->kind, kind);
  }
}

TEST(ProtocolTest, ResponsesRoundTrip) {
  Response ok = OkResponse();
  ok.fields.emplace_back("session", "9");
  ok.fields.emplace_back("certifiable", "true");
  ok.body = "some body\nsecond line\n";
  auto parsed = ParseResponse(FormatResponse(ok));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->FieldInt("session"), 9u);
  EXPECT_EQ(parsed->Field("certifiable"), "true");
  EXPECT_EQ(parsed->body, ok.body);

  Response err = ErrorResponse("not_found", "no session 12");
  parsed = ParseResponse(FormatResponse(err));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->error_code, "not_found");
  EXPECT_EQ(parsed->error_message, "no session 12");
}

TEST(ProtocolTest, MalformedPayloadsAreRejected) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("FROBNICATE 1").ok());
  EXPECT_FALSE(ParseRequest("APPEND").ok());          // missing session
  EXPECT_FALSE(ParseRequest("APPEND 1\nend").ok());   // "end" is not an event
  EXPECT_FALSE(ParseResponse("MAYBE ok").ok());
  // Session ids are plain decimal digits: strtoull would read "-1" as
  // 2^64-1, "+7" as 7 and " -3" as 2^64-3.
  EXPECT_FALSE(ParseRequest("QUERY -1").ok());
  EXPECT_FALSE(ParseRequest("QUERY +7").ok());
  EXPECT_FALSE(ParseRequest("APPEND  -3").ok());
  EXPECT_FALSE(ParseRequest("CLOSE 18446744073709551616").ok());
  EXPECT_FALSE(ParseRequest("SUBSCRIBE -1 from=1").ok());
  EXPECT_TRUE(ParseRequest("QUERY 7").ok());
  // Reply fields parse the same way, falling back when malformed.
  Response reply;
  reply.fields = {{"session", "-1"}, {"queued", "+4"}, {"order", "3"}};
  EXPECT_EQ(reply.FieldInt("session", 42), 42u);
  EXPECT_EQ(reply.FieldInt("queued", 42), 42u);
  EXPECT_EQ(reply.FieldInt("order", 42), 3u);
}

TEST(SessionOptionsTest, ParseOverridesDefaults) {
  SessionOptions defaults;
  defaults.queue_capacity = 128;
  auto parsed = ParseSessionOptions(
      "forgetting=false queue_capacity=16 epoch_interval=3", defaults);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->certifier.forgetting);
  EXPECT_EQ(parsed->queue_capacity, 16u);
  // The retired epoch_interval key is accepted and ignored.
  EXPECT_EQ(parsed->certifier.auto_prune, defaults.certifier.auto_prune);
  EXPECT_FALSE(ParseSessionOptions("queue_capacity=banana", defaults).ok());
  EXPECT_FALSE(ParseSessionOptions("no_such_option=1", defaults).ok());
  // Integers are plain decimal digits: no sign (strtoull would wrap "-1"
  // to 2^64-1 and switch off backpressure) and no overflow.
  EXPECT_FALSE(ParseSessionOptions("queue_capacity=-1", defaults).ok());
  EXPECT_FALSE(ParseSessionOptions("queue_capacity=+16", defaults).ok());
  EXPECT_FALSE(
      ParseSessionOptions("queue_capacity=99999999999999999999", defaults)
          .ok());
  EXPECT_FALSE(ParseSessionOptions("epoch_interval=-1", defaults).ok());
  EXPECT_FALSE(ParseSessionOptions("resume=-7", defaults).ok());
  // The retired epoch_interval key keeps its 32-bit check: 2^32 is
  // rejected, and a value that fits is accepted and ignored.
  EXPECT_FALSE(ParseSessionOptions("epoch_interval=4294967296", defaults).ok());
  auto widest = ParseSessionOptions("epoch_interval=4294967295", defaults);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_TRUE(widest->certifier.auto_prune);
  // The retired static_admission/paranoid keys parse (and are ignored) so
  // logged OPEN options keep recovering; their value is still checked.
  auto retired = ParseSessionOptions("static_admission=1 paranoid=true",
                                     defaults);
  ASSERT_TRUE(retired.ok()) << retired.status().ToString();
  EXPECT_FALSE(ParseSessionOptions("paranoid=maybe", defaults).ok());
}

// ------------------------------------------------------------- helpers

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

/// Single-threaded ground truth: batch-replay + CheckCompC (the
/// single-trace kernel of SweepCompC), validation off exactly as the
/// online certifier treats a stream.
bool BatchVerdict(const std::vector<workload::TraceEvent>& events) {
  CompositeSystem cs;
  for (const auto& event : events) {
    EXPECT_TRUE(workload::ApplyTraceEvent(cs, event).ok());
  }
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  auto result = CheckCompC(cs, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->correct;
}

// ------------------------------------------------- in-process server

TEST(CertificationServerTest, OpenAppendQueryCloseMatchesBatch) {
  ServerOptions options;
  options.workers = 2;
  CertificationServer server(options);
  const auto events = GeneratedEvents(8, 101);
  auto session = server.Open();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(server.Append(*session, events).ok());
  auto verdict = server.Query(*session);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->events_accepted, events.size());
  EXPECT_EQ(verdict->events_rejected, 0u);
  EXPECT_EQ(verdict->certifiable, BatchVerdict(events));
  auto closed = server.Close(*session);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->certifiable, verdict->certifiable);
  // The slot is gone: every further command answers not_found.
  EXPECT_FALSE(server.Query(*session).ok());
  EXPECT_FALSE(server.Append(*session, events).ok());
  server.Shutdown();
}

TEST(CertificationServerTest, InProcessVerdictsCarryTheWindowFields) {
  CertificationServer server(ServerOptions{});
  auto session = server.Open();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // Six independent roots, the first three committed and pruned.
  std::vector<workload::TraceEvent> events;
  workload::TraceEvent e;
  e.kind = workload::TraceEventKind::kSchedule;
  e.name = "S";
  events.push_back(e);
  for (uint32_t root = 0; root < 6; ++root) {
    e = {};
    e.kind = workload::TraceEventKind::kRoot;
    e.schedule = 0;
    e.name = StrCat("T", root);
    events.push_back(e);
    e = {};
    e.kind = workload::TraceEventKind::kLeaf;
    e.parent = 2 * root;
    e.name = StrCat("x", root);
    events.push_back(e);
  }
  e = {};
  e.kind = workload::TraceEventKind::kCommitThrough;
  e.a = 3;
  events.push_back(e);
  ASSERT_TRUE(server.Append(*session, events).ok());

  auto verdict = server.Query(*session);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  Request query;
  query.kind = CommandKind::kQuery;
  query.session = *session;
  const Response reply = server.Handle(query);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(verdict->session, reply.FieldInt("session"));
  EXPECT_EQ(verdict->certifiable, reply.FieldInt("certifiable") == 1);
  EXPECT_EQ(verdict->order, reply.FieldInt("order"));
  EXPECT_EQ(verdict->events_accepted, reply.FieldInt("accepted"));
  EXPECT_EQ(verdict->events_rejected, reply.FieldInt("rejected"));
  EXPECT_EQ(verdict->live_nodes, reply.FieldInt("live_nodes"));
  EXPECT_EQ(verdict->pruned_nodes, reply.FieldInt("pruned_nodes"));
  EXPECT_EQ(verdict->sealed_roots, reply.FieldInt("sealed_roots"));
  EXPECT_EQ(verdict->commit_watermark, reply.FieldInt("commit_watermark"));
  EXPECT_EQ(verdict->window_span, reply.FieldInt("window_span"));
  EXPECT_EQ(verdict->pruned_nodes, 6u);
  EXPECT_EQ(verdict->sealed_roots, 3u);
  EXPECT_EQ(verdict->commit_watermark, 3u);
  EXPECT_EQ(verdict->live_nodes, 6u);

  auto closed = server.Close(*session);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->pruned_nodes, verdict->pruned_nodes);
  EXPECT_EQ(closed->sealed_roots, verdict->sealed_roots);
  EXPECT_EQ(closed->commit_watermark, verdict->commit_watermark);
  EXPECT_EQ(closed->live_nodes, verdict->live_nodes);
  EXPECT_EQ(closed->window_span, verdict->window_span);
  server.Shutdown();
}

TEST(CertificationServerTest, AdmissionControlRefusesBeyondMaxSessions) {
  ServerOptions options;
  options.workers = 1;
  options.max_sessions = 2;
  CertificationServer server(options);
  auto first = server.Open();
  auto second = server.Open();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  Request open;
  open.kind = CommandKind::kOpen;
  Response refused = server.Handle(open);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, "session_limit");
  // Closing one frees the slot.
  ASSERT_TRUE(server.Close(*first).ok());
  EXPECT_TRUE(server.Open().ok());
  server.Shutdown();
}

TEST(CertificationServerTest, BadSessionOptionsAreABadRequest) {
  CertificationServer server(ServerOptions{});
  Request open;
  open.kind = CommandKind::kOpen;
  open.options = "queue_capacity=banana";
  Response response = server.Handle(open);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "bad_request");
  server.Shutdown();
}

TEST(CertificationServerTest, IdleSessionsAreEvicted) {
  ServerOptions options;
  options.workers = 1;
  options.idle_timeout_ms = 1;
  CertificationServer server(options);
  auto session = server.Open();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(server.Append(*session, GeneratedEvents(2, 7)).ok());
  ASSERT_TRUE(server.Query(*session).ok());  // drain, then go idle
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The background ticker may beat the explicit sweep to the eviction;
  // either way the session is evicted exactly once.
  server.EvictIdleNow();
  EXPECT_FALSE(server.Query(*session).ok());
  EXPECT_EQ(server.metrics().sessions_evicted.load(), 1u);
  EXPECT_EQ(server.SessionCount(), 0u);
  server.Shutdown();
}

TEST(CertificationServerTest, ShutdownDrainsEveryQueuedEvent) {
  ServerOptions options;
  options.workers = 2;
  options.batch_size = 8;  // force many run-queue hand-offs
  CertificationServer server(options);
  std::vector<uint64_t> ids;
  for (int s = 0; s < 6; ++s) {
    auto session = server.Open();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(server.Append(*session, GeneratedEvents(8, 200 + s)).ok());
    ids.push_back(*session);
  }
  server.Shutdown();  // graceful: queued events certify before teardown
  EXPECT_EQ(server.metrics().events_enqueued.load(),
            server.metrics().events_processed.load() +
                server.metrics().events_rejected.load());
  EXPECT_EQ(server.metrics().queue_depth.load(), 0);
  // After shutdown every command is refused.
  Request open;
  open.kind = CommandKind::kOpen;
  EXPECT_EQ(server.Handle(open).error_code, "shutting_down");
}

TEST(CertificationServerTest, RejectedEventsAreCountedNotFatal) {
  CertificationServer server(ServerOptions{});
  auto session = server.Open();
  ASSERT_TRUE(session.ok());
  workload::TraceEvent bogus;
  bogus.kind = workload::TraceEventKind::kConflict;
  bogus.a = 100;  // no such node: the certifier rejects it
  bogus.b = 101;
  auto events = GeneratedEvents(2, 11);
  events.push_back(bogus);
  ASSERT_TRUE(server.Append(*session, events).ok());
  auto verdict = server.Query(*session);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->events_accepted, events.size() - 1);
  EXPECT_EQ(verdict->events_rejected, 1u);
  server.Shutdown();
  // A workload with a real rejection keeps the counters consistent:
  // events_processed counts successful ingests only.
  EXPECT_EQ(server.metrics().events_rejected.load(), 1u);
  EXPECT_EQ(server.metrics().events_enqueued.load(),
            server.metrics().events_processed.load() +
                server.metrics().events_rejected.load());
}

// Regression: an APPEND carrying more events than the queue capacity
// into an idle session must schedule the pushed prefix before blocking
// for space — otherwise the producer waits forever for a drain no
// worker was asked to perform (this test hung before the fix).
TEST(CertificationServerTest, AppendLargerThanQueueCapacityDoesNotDeadlock) {
  ServerOptions options;
  options.workers = 1;
  options.batch_size = 1;
  options.session.queue_capacity = 1;
  CertificationServer server(options);
  auto session = server.Open();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const auto events = GeneratedEvents(6, 99);
  ASSERT_GT(events.size(), 1u);
  ASSERT_TRUE(server.Append(*session, events).ok());
  auto verdict = server.Query(*session);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->events_accepted + verdict->events_rejected,
            events.size());
  EXPECT_EQ(verdict->certifiable, BatchVerdict(events));
  EXPECT_GT(server.metrics().backpressure_waits.load(), 0u);
  server.Shutdown();
}

// Eviction closes the session in the same critical section as the idle
// check, so an enqueue can only ever lose the race by failing loudly
// (session_closing), never by landing an acknowledged event in an
// evicted session.
TEST(SessionTest, CloseIfIdleIsAtomicWithTheIdleCheck) {
  ServiceMetrics metrics;
  Session session(1, SessionOptions{}, &metrics);
  // A session with recent activity is not evictable...
  EXPECT_FALSE(session.CloseIfIdle(std::chrono::steady_clock::now() -
                                   std::chrono::hours(1)));
  Status enqueued =
      session.Enqueue(GeneratedEvents(2, 13), /*schedule=*/[] {});
  ASSERT_TRUE(enqueued.ok()) << enqueued.ToString();
  // ...nor is one with queued events, regardless of the cutoff.
  EXPECT_FALSE(session.CloseIfIdle(std::chrono::steady_clock::now() +
                                   std::chrono::hours(1)));
  while (session.ProcessBatch(16)) {
  }
  EXPECT_TRUE(session.CloseIfIdle(std::chrono::steady_clock::now() +
                                  std::chrono::hours(1)));
  // Once closing, a racing producer fails instead of losing its events.
  Status refused =
      session.Enqueue(GeneratedEvents(2, 13), /*schedule=*/[] {});
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------- TCP loopback

TEST(ServiceLoopbackTest, FullProtocolOverTcp) {
  ServerOptions options;
  options.workers = 2;
  CertificationServer server(options);
  Endpoint endpoint;  // 127.0.0.1, ephemeral port
  ASSERT_TRUE(server.Listen(endpoint).ok());
  ASSERT_GT(endpoint.port, 0);

  auto client = ServiceClient::Dial(endpoint);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ping().ok());

  const auto events = GeneratedEvents(6, 33);
  auto session = client->Open("queue_capacity=512");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto queued = client->Append(*session, events);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_EQ(*queued, events.size());

  auto verdict = client->Query(*session);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->events_accepted, events.size());
  EXPECT_EQ(verdict->certifiable, BatchVerdict(events));

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("events_processed"), std::string::npos) << *stats;

  auto closed = client->Close(*session);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  auto missing = client->Query(*session);
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("not_found"), std::string::npos)
      << missing.status().ToString();
  server.Shutdown();
}

TEST(ServiceLoopbackTest, ShutdownCommandDrainsAndRefusesNewWork) {
  CertificationServer server(ServerOptions{});
  Endpoint endpoint;
  ASSERT_TRUE(server.Listen(endpoint).ok());
  auto client = ServiceClient::Dial(endpoint);
  ASSERT_TRUE(client.ok());
  auto session = client->Open();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(client->Append(*session, GeneratedEvents(4, 55)).ok());
  ASSERT_TRUE(client->Shutdown().ok());
  server.WaitShutdown();
  server.Shutdown();
  EXPECT_EQ(server.metrics().events_enqueued.load(),
            server.metrics().events_processed.load() +
                server.metrics().events_rejected.load());
}

// --------------------------------------------------------- concurrency

// The acceptance configuration: >= 64 sessions fed from >= 8 client
// threads through the in-process API, every verdict identical to a
// single-threaded batch replay of the same events.  Runs under TSan in
// CI (ctest -R ServiceStress).
TEST(ServiceStressTest, SixtyFourSessionsEightThreadsMatchBatchReplay) {
  constexpr size_t kSessions = 64;
  constexpr size_t kThreads = 8;
  ServerOptions options;
  options.workers = 4;
  options.batch_size = 16;        // many hand-offs per session
  options.session.queue_capacity = 64;  // exercise backpressure
  CertificationServer server(options);

  struct Work {
    uint64_t id = 0;
    std::vector<workload::TraceEvent> events;
  };
  std::vector<Work> work(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    auto session = server.Open();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    work[s].id = *session;
    work[s].events = GeneratedEvents(4 + s % 5, 1000 + s);
  }

  // Each thread owns a disjoint slice of sessions (in-process Append is
  // synchronous, so per-session ordering needs per-session ownership)
  // and interleaves appends across them in small chunks.
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      constexpr size_t kChunk = 24;
      bool progress = true;
      std::vector<size_t> cursors(kSessions, 0);
      while (progress) {
        progress = false;
        for (size_t s = t; s < kSessions; s += kThreads) {
          Work& w = work[s];
          size_t& cursor = cursors[s];
          if (cursor >= w.events.size()) continue;
          const size_t n = std::min(kChunk, w.events.size() - cursor);
          std::vector<workload::TraceEvent> chunk(
              w.events.begin() + cursor, w.events.begin() + cursor + n);
          cursor += n;
          if (!server.Append(w.id, std::move(chunk)).ok()) {
            failures.fetch_add(1);
            return;
          }
          progress = true;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0u);

  size_t mismatches = 0;
  for (const Work& w : work) {
    auto verdict = server.Close(w.id);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_EQ(verdict->events_accepted + verdict->events_rejected,
              w.events.size());
    if (verdict->certifiable != BatchVerdict(w.events)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  server.Shutdown();
  EXPECT_EQ(server.metrics().events_enqueued.load(),
            server.metrics().events_processed.load() +
                server.metrics().events_rejected.load());
}

// The certifier's documented threading contract (online/certifier.h):
// one ingesting thread, any number of concurrent Verdict/Stats readers.
// TSan validates the internal locking (ctest -R CertifierConcurrency).
TEST(CertifierConcurrencyTest, ConcurrentReadersSeeConsistentVerdicts) {
  const auto events = GeneratedEvents(16, 77);
  online::Certifier certifier;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&certifier, &done] {
      // do-while: on a single-core box the writer may finish before this
      // thread is first scheduled; every reader still polls at least once.
      do {
        online::CertifierVerdict verdict = certifier.Verdict();
        online::CertifierStats stats = certifier.Stats();
        // Sanity on the concurrently-read snapshot: a reader never sees
        // more accepted events than the stream holds.
        ASSERT_LE(stats.events_accepted, 1u << 20);
        ASSERT_LE(verdict.order, 1u << 20);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  size_t accepted = 0;
  for (const auto& event : events) {
    if (certifier.Ingest(event).ok()) ++accepted;
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(certifier.Stats().events_accepted, accepted);
  EXPECT_EQ(certifier.Certifiable(), BatchVerdict(events));
}

// ------------------------------------------------- durable sessions

/// A fresh durability directory per test case.
std::string DurabilityDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      StrCat("comptx_svc_dur_", static_cast<unsigned long>(::getpid())) /
      name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(DurableServerTest, SessionsSurviveRestartWithConsistentCounters) {
  const std::string dir = DurabilityDir("restart");
  ServerOptions options;
  options.workers = 2;
  options.durability.dir = dir;
  options.durability.fsync = durability::FsyncPolicy::kNone;
  options.durability.snapshot_events = 16;  // some sessions will compact

  std::vector<uint64_t> ids;
  std::vector<std::vector<workload::TraceEvent>> streams;
  {
    CertificationServer server(options);
    ASSERT_TRUE(server.InitStatus().ok()) << server.InitStatus();
    for (int s = 0; s < 3; ++s) {
      auto events = GeneratedEvents(6, 900 + s);
      auto id = server.Open();
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_TRUE(server.Append(*id, events).ok());
      ids.push_back(*id);
      streams.push_back(std::move(events));
    }
    server.Shutdown();  // graceful: drains + snapshots every session
  }

  options.durability.verify_recovery = true;
  CertificationServer server(options);
  ASSERT_TRUE(server.InitStatus().ok()) << server.InitStatus();
  EXPECT_EQ(server.SessionCount(), 3u);
  EXPECT_EQ(server.metrics().durability.sessions_recovered.load(), 3u);
  for (size_t s = 0; s < ids.size(); ++s) {
    auto verdict = server.Query(ids[s]);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_EQ(verdict->events_accepted + verdict->events_rejected,
              streams[s].size());
    EXPECT_EQ(verdict->certifiable, BatchVerdict(streams[s]));
    ASSERT_TRUE(server.Close(ids[s]).ok());
  }
  // The pipeline invariant holds across the restart: recovered events
  // re-enter all three counters, so the books still balance.
  EXPECT_EQ(server.metrics().events_enqueued.load(),
            server.metrics().events_processed.load() +
                server.metrics().events_rejected.load());
  // STATS surfaces the durability counter block.
  Request stats;
  stats.kind = CommandKind::kStats;
  const Response response = server.Handle(stats);
  ASSERT_TRUE(response.ok);
  for (const char* key :
       {"wal_appends", "wal_append_events", "wal_bytes", "fsyncs",
        "snapshots_written", "sessions_recovered", "records_truncated"}) {
    EXPECT_NE(response.body.find(key), std::string::npos) << key;
  }
  server.Shutdown();
  // Every session was closed: the directory is empty again.
  EXPECT_TRUE(durability::ListDurableSessionIds(dir).empty());
}

TEST(DurableServerTest, EvictionPersistsAndResumeRestoresTheVerdict) {
  const std::string dir = DurabilityDir("evict");
  ServerOptions options;
  options.workers = 1;
  options.idle_timeout_ms = 1;
  options.durability.dir = dir;
  options.durability.fsync = durability::FsyncPolicy::kNone;
  CertificationServer server(options);
  ASSERT_TRUE(server.InitStatus().ok()) << server.InitStatus();

  const auto events = GeneratedEvents(8, 4321);
  const size_t half = events.size() / 2;
  auto id = server.Open("epoch_interval=16");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(
      server
          .Append(*id, {events.begin(), events.begin() +
                                            static_cast<ptrdiff_t>(half)})
          .ok());
  ASSERT_TRUE(server.Query(*id).ok());  // drain, then go idle
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The ticker may beat the explicit sweep; either way the session is
  // evicted exactly once and persisted to disk first.
  server.EvictIdleNow();
  EXPECT_EQ(server.metrics().sessions_evicted.load(), 1u);
  EXPECT_FALSE(server.Query(*id).ok());  // no longer live...
  ASSERT_EQ(durability::ListDurableSessionIds(dir).size(), 1u);  // ...but kept

  // Resuming a live session is an error only once it IS live again.
  auto resumed = server.Open(StrCat("resume=", *id));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(*resumed, *id);  // same id: the client's stream continues
  EXPECT_FALSE(server.Open(StrCat("resume=", *id)).ok());  // already live
  EXPECT_FALSE(server.Open("resume=99999").ok());          // never existed

  ASSERT_TRUE(
      server
          .Append(*id, {events.begin() + static_cast<ptrdiff_t>(half),
                        events.end()})
          .ok());
  auto verdict = server.Close(*id);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->events_accepted + verdict->events_rejected,
            events.size());
  EXPECT_EQ(verdict->certifiable, BatchVerdict(events));
  // CLOSE removed the durable files; the id cannot be resumed again.
  EXPECT_TRUE(durability::ListDurableSessionIds(dir).empty());
  EXPECT_FALSE(server.Open(StrCat("resume=", *id)).ok());
  server.Shutdown();
}

TEST(DurableServerTest, ResumeWithoutDurabilityIsABadRequest) {
  CertificationServer server(ServerOptions{});
  auto resumed = server.Open("resume=1");
  EXPECT_FALSE(resumed.ok());
  server.Shutdown();
}

// A resume of a live id is a lifecycle race the client may retry, not a
// malformed request: Handle answers session_busy, and the client library
// turns that code back into AlreadyExists.
TEST(DurableServerTest, ResumeOfALiveSessionAnswersSessionBusy) {
  ServerOptions options;
  options.workers = 1;
  options.durability.dir = DurabilityDir("resume_live");
  options.durability.fsync = durability::FsyncPolicy::kNone;
  CertificationServer server(options);
  ASSERT_TRUE(server.InitStatus().ok()) << server.InitStatus();
  auto id = server.Open();
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  Request open;
  open.kind = CommandKind::kOpen;
  open.options = StrCat("resume=", *id);
  const Response response = server.Handle(open);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "session_busy") << response.error_message;

  Endpoint endpoint;
  ASSERT_TRUE(server.Listen(endpoint).ok());
  auto client = ServiceClient::Dial(endpoint);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto resumed = client->Open(open.options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kAlreadyExists)
      << resumed.status().ToString();
  server.Shutdown();
}

// ------------------------------------------------- session-table races

// Runs `body(t)` on `threads` threads released together, so they reach
// the session table at the same moment.
template <typename Body>
void RaceThreads(size_t threads, const Body& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> racers;
  for (size_t t = 0; t < threads; ++t) {
    racers.emplace_back([&go, &body, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& racer : racers) racer.join();
}

TEST(ServiceStressTest, RacingOpensAdmitExactlyMaxSessions) {
  constexpr size_t kThreads = 8;
  ServerOptions options;
  options.workers = 1;
  options.max_sessions = 3;
  CertificationServer server(options);
  std::vector<Response> replies(kThreads);
  RaceThreads(kThreads, [&](size_t t) {
    Request open;
    open.kind = CommandKind::kOpen;
    replies[t] = server.Handle(open);
  });
  size_t admitted = 0;
  std::vector<uint64_t> ids;
  for (const Response& reply : replies) {
    if (reply.ok) {
      ++admitted;
      ids.push_back(reply.FieldInt("session"));
    } else {
      EXPECT_EQ(reply.error_code, "session_limit") << reply.error_message;
    }
  }
  EXPECT_EQ(admitted, 3u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(server.SessionCount(), 3u);
  EXPECT_EQ(server.metrics().sessions_opened.load(), 3u);
  server.Shutdown();
}

TEST(ServiceStressTest, RacingResumesOfOneEvictedSessionAdmitOne) {
  ServerOptions options;
  options.workers = 2;
  // Long enough that the resumed session is not evicted again before the
  // test queries it, short enough to wait out three times.
  options.idle_timeout_ms = 250;
  options.durability.dir = DurabilityDir("resume_race");
  options.durability.fsync = durability::FsyncPolicy::kNone;
  CertificationServer server(options);
  ASSERT_TRUE(server.InitStatus().ok()) << server.InitStatus();

  const auto events = GeneratedEvents(8, 2468);
  auto id = server.Open();
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(server.Append(*id, events).ok());
  auto before = server.Query(*id);  // drains: the pre-eviction verdict
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->certifiable, BatchVerdict(events));

  for (uint64_t round = 1; round <= 3; ++round) {
    // The ticker may beat the explicit sweep; either way it is evicted.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (server.metrics().sessions_evicted.load() < round &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      server.EvictIdleNow();
    }
    // Waits out a sweep the ticker may still be persisting: until it
    // ends, the id stays reserved and every resume is refused.
    server.EvictIdleNow();
    ASSERT_EQ(server.metrics().sessions_evicted.load(), round);
    ASSERT_EQ(server.SessionCount(), 0u);

    std::vector<StatusOr<uint64_t>> resumed(
        2, Status::Internal("did not run"));
    RaceThreads(2, [&](size_t t) {
      resumed[t] = server.Open(StrCat("resume=", *id));
    });
    size_t winners = 0;
    for (const StatusOr<uint64_t>& result : resumed) {
      if (result.ok()) {
        ++winners;
        EXPECT_EQ(*result, *id);
      } else {
        EXPECT_NE(result.status().message().find("already open"),
                  std::string::npos)
            << result.status().ToString();
      }
    }
    EXPECT_EQ(winners, 1u) << "round " << round;
    EXPECT_EQ(server.SessionCount(), 1u);

    auto after = server.Query(*id);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after->certifiable, before->certifiable);
    EXPECT_EQ(after->order, before->order);
    EXPECT_EQ(after->events_accepted, before->events_accepted);
    EXPECT_EQ(after->events_rejected, before->events_rejected);
    EXPECT_EQ(after->failure, before->failure);
  }
  ASSERT_TRUE(server.Close(*id).ok());
  server.Shutdown();
}

// A resume that lands while the idle sweep is still persisting the
// eviction used to adopt the log mid-persist: the sweep's EVICT marker
// then landed after the RESUME, and a restart classified the live,
// drained session as evicted.  Each round spins resumes against the
// ticker's sweep, finishes the stream, restarts, and expects the session
// live with every event.
TEST(ServiceStressTest, ResumeRacingTheIdleSweepSurvivesARestart) {
  for (uint64_t round = 0; round < 30; ++round) {
    ServerOptions options;
    options.workers = 1;
    options.idle_timeout_ms = 50;  // the ticker sweeps every 50 ms
    options.durability.dir = DurabilityDir("resume_vs_sweep");
    options.durability.fsync = durability::FsyncPolicy::kNone;
    const auto events = GeneratedEvents(8, 7000 + round);
    const auto half = static_cast<ptrdiff_t>(events.size() / 2);
    uint64_t id = 0;
    {
      CertificationServer server(options);
      ASSERT_TRUE(server.InitStatus().ok()) << server.InitStatus();
      auto opened = server.Open();
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      id = *opened;
      ASSERT_TRUE(server.Append(id, {events.begin(), events.begin() + half})
                      .ok());
      ASSERT_TRUE(server.Query(id).ok());
      // Refused while live or mid-eviction; succeeds once the sweep has
      // persisted the eviction.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      bool resumed = false;
      while (!resumed && std::chrono::steady_clock::now() < deadline) {
        resumed = server.Open(StrCat("resume=", id)).ok();
      }
      ASSERT_TRUE(resumed) << "round " << round;
      ASSERT_TRUE(
          server.Append(id, {events.begin() + half, events.end()}).ok());
      ASSERT_TRUE(server.Query(id).ok());
      server.Shutdown();
    }
    options.durability.verify_recovery = true;
    CertificationServer server(options);
    ASSERT_TRUE(server.InitStatus().ok()) << server.InitStatus();
    auto verdict = server.Query(id);
    ASSERT_TRUE(verdict.ok())
        << "round " << round << ": " << verdict.status().ToString();
    EXPECT_EQ(verdict->events_accepted + verdict->events_rejected,
              events.size());
    EXPECT_EQ(verdict->certifiable, BatchVerdict(events));
    server.Shutdown();
  }
}

}  // namespace
}  // namespace comptx::service
