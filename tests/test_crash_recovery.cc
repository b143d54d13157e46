// Kill-based crash-recovery drill (ctest label `durability`): run a real
// comptx_serve with --data-dir, stream events at it, SIGKILL it at a
// randomized moment mid-load, then prove three things offline and online:
//
//   1. zero acked-event loss — every APPEND the server acknowledged is in
//      the durable state (event_seq >= the client's acked cursor);
//   2. the durable state replays to the batch oracle's verdict for the
//      durable prefix of the stream (RebuildCertifier + VerifyRecovery);
//   3. a restarted server recovers the sessions, continues the stream,
//      and ends with exactly the verdict of an uninterrupted run.
//
// Iteration count comes from COMPTX_CRASH_ITERS (default 50, the
// acceptance floor; the TSan CI job runs a reduced count).  Each
// iteration randomizes the kill delay, the fsync policy and the snapshot
// cadence, so kills land before the first append, mid-stream, between
// snapshot and compaction, and after the load finished.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/correctness.h"
#include "durability/recovery.h"
#include "online/certifier.h"
#include "service/client.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/event_streams.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

namespace comptx {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

size_t Iterations() {
  if (const char* env = std::getenv("COMPTX_CRASH_ITERS")) {
    return std::strtoul(env, nullptr, 10);
  }
  return 50;
}

fs::path Scratch() {
  static const fs::path dir = [] {
    fs::path p =
        fs::path(::testing::TempDir()) /
        StrCat("comptx_crash_", static_cast<unsigned long>(::getpid()));
    fs::create_directories(p);
    return p;
  }();
  return dir;
}

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

bool BatchVerdict(const std::vector<workload::TraceEvent>& events) {
  CompositeSystem cs;
  for (const auto& event : events) {
    (void)workload::ApplyTraceEvent(cs, event);
  }
  ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  auto result = CheckCompC(cs, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->correct;
}

/// Forks + execs comptx_serve; returns the child pid (or -1).
pid_t SpawnServer(const std::vector<std::string>& args) {
  std::vector<std::string> argv_strings;
  argv_strings.push_back(COMPTX_SERVE_BIN);
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (auto& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Quiet child: the drill kills it mid-write, log spam is noise.
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

/// Waits for the --port-file to appear with a port number.
int AwaitPort(const fs::path& port_file, pid_t pid) {
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(15);
  while (Clock::now() < deadline) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) return port;
    int wait_status = 0;
    if (::waitpid(pid, &wait_status, WNOHANG) == pid) return -1;  // died
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return -1;
}

struct StreamState {
  uint64_t id = 0;  // server-assigned
  std::vector<workload::TraceEvent> events;
  std::atomic<size_t> acked{0};
};

TEST(CrashRecoveryDrill, RandomizedKillsLoseNothingAndReplayExactly) {
  const size_t iterations = Iterations();
  size_t kills_before_finish = 0;
  for (size_t iter = 0; iter < iterations; ++iter) {
    SCOPED_TRACE(StrCat("iteration ", iter));
    Rng rng(0xC0FFEEull * (iter + 1));
    const fs::path dir = Scratch() / StrCat("iter_", iter);
    const fs::path data = dir / "data";
    const fs::path port_file = dir / "port.txt";
    fs::create_directories(dir);

    // Randomized drill shape.  The load finishes in a few milliseconds
    // over loopback, so most kill delays are tiny (to land mid-stream);
    // every seventh iteration waits long past the finish to also cover
    // kills of an idle, fully-loaded server.
    const size_t sessions = 2 + rng.UniformInt(2);  // 2..3
    const uint64_t kill_delay_ms =
        rng.UniformInt(12) + (iter % 7 == 6 ? 100 : 0);
    const char* fsync = (iter % 3 == 0)   ? "always"
                        : (iter % 3 == 1) ? "interval"
                                          : "none";
    // Alternate snapshot-heavy and WAL-only iterations, so kills land
    // both around compactions and on plain log suffixes.
    const uint64_t snapshot_events = (iter % 2 == 0) ? 24 : 0;

    const pid_t pid = SpawnServer(
        {"--port", "0", "--port-file", port_file.string(), "--data-dir",
         data.string(), "--fsync", fsync, "--fsync-interval-ms", "1",
         "--snapshot-events", StrCat(snapshot_events), "--workers", "2"});
    ASSERT_GT(pid, 0);
    const int port = AwaitPort(port_file, pid);
    ASSERT_GT(port, 0) << "server did not come up";
    service::Endpoint endpoint;
    endpoint.port = port;

    // Open the sessions (durable OPEN, acked before we continue), then
    // stream each from its own thread, tracking the acked cursor.
    std::vector<std::unique_ptr<StreamState>> streams;
    {
      auto control = service::ServiceClient::Dial(endpoint);
      ASSERT_TRUE(control.ok()) << control.status().ToString();
      for (size_t s = 0; s < sessions; ++s) {
        auto stream = std::make_unique<StreamState>();
        stream->events = GeneratedEvents(6 + (iter % 3) * 2, iter * 31 + s);
        auto id = control->Open("epoch_interval=16");
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        stream->id = *id;
        streams.push_back(std::move(stream));
      }
    }
    std::atomic<bool> killed{false};
    std::vector<std::thread> appenders;
    for (auto& stream : streams) {
      appenders.emplace_back([&endpoint, &killed, &stream] {
        auto client = service::ServiceClient::Dial(endpoint);
        if (!client.ok()) return;
        size_t cursor = 0;
        while (cursor < stream->events.size()) {
          const size_t n = std::min<size_t>(8, stream->events.size() - cursor);
          std::vector<workload::TraceEvent> batch(
              stream->events.begin() + cursor,
              stream->events.begin() + cursor + n);
          auto queued = client->Append(stream->id, batch);
          if (!queued.ok()) {
            // The kill cut the connection: expected drill outcome.
            EXPECT_TRUE(killed.load()) << queued.status().ToString();
            return;
          }
          cursor += n;
          stream->acked.store(cursor, std::memory_order_release);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_delay_ms));
    killed.store(true);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    for (auto& thread : appenders) thread.join();
    int wait_status = 0;
    ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

    // ---- offline: the durable state alone must satisfy the contract.
    size_t unfinished = 0;
    for (const auto& stream : streams) {
      const size_t acked = stream->acked.load(std::memory_order_acquire);
      if (acked < stream->events.size()) ++unfinished;
      auto state = durability::ReadSessionDurableState(data.string(),
                                                       stream->id);
      ASSERT_TRUE(state.ok()) << "session " << stream->id << ": "
                              << state.status().ToString();
      // Zero acked loss: a process kill cannot take back an ack under
      // any fsync policy (the bytes are written before the ack).
      ASSERT_GE(state->event_seq, acked) << "session " << stream->id;
      ASSERT_LE(state->event_seq, stream->events.size());
      // The durable prefix replays to the oracle verdict.
      auto certifier = durability::RebuildCertifier(
          *state, online::CertifierOptions{});
      ASSERT_TRUE(certifier.ok()) << certifier.status().ToString();
      ASSERT_TRUE(
          durability::VerifyRecovery(**certifier, state->event_seq).ok());
      const std::vector<workload::TraceEvent> prefix(
          stream->events.begin(), stream->events.begin() + state->event_seq);
      EXPECT_EQ((*certifier)->Certifiable(), BatchVerdict(prefix))
          << "session " << stream->id;
    }
    if (unfinished > 0) ++kills_before_finish;

    // ---- online: a restarted server picks every session back up and
    // finishes the run with the uninterrupted verdict.
    fs::remove(port_file);
    const pid_t pid2 = SpawnServer(
        {"--port", "0", "--port-file", port_file.string(), "--data-dir",
         data.string(), "--fsync", fsync, "--snapshot-events",
         StrCat(snapshot_events), "--verify-recovery", "--workers", "2"});
    ASSERT_GT(pid2, 0);
    const int port2 = AwaitPort(port_file, pid2);
    ASSERT_GT(port2, 0) << "restart failed (recovery refused?)";
    endpoint.port = port2;
    auto control = service::ServiceClient::Dial(endpoint);
    ASSERT_TRUE(control.ok()) << control.status().ToString();
    for (const auto& stream : streams) {
      auto verdict = control->Query(stream->id);
      ASSERT_TRUE(verdict.ok()) << "session " << stream->id << ": "
                                << verdict.status().ToString();
      const uint64_t recovered =
          verdict->events_accepted + verdict->events_rejected;
      ASSERT_GE(recovered, stream->acked.load());
      ASSERT_LE(recovered, stream->events.size());
      for (size_t cursor = recovered; cursor < stream->events.size();) {
        const size_t n = std::min<size_t>(8, stream->events.size() - cursor);
        std::vector<workload::TraceEvent> batch(
            stream->events.begin() + cursor,
            stream->events.begin() + cursor + n);
        ASSERT_TRUE(control->Append(stream->id, batch).ok());
        cursor += n;
      }
      auto final_verdict = control->Close(stream->id);
      ASSERT_TRUE(final_verdict.ok()) << final_verdict.status().ToString();
      EXPECT_EQ(final_verdict->certifiable, BatchVerdict(stream->events))
          << "session " << stream->id;
      EXPECT_EQ(final_verdict->events_accepted +
                    final_verdict->events_rejected,
                stream->events.size());
    }
    ASSERT_TRUE(control->Shutdown().ok());
    ASSERT_EQ(::waitpid(pid2, &wait_status, 0), pid2);
    ASSERT_TRUE(WIFEXITED(wait_status));
    ASSERT_EQ(WEXITSTATUS(wait_status), 0);
    // Every session was closed: the durability dir must be empty again.
    EXPECT_TRUE(durability::ListDurableSessionIds(data.string()).empty());
    fs::remove_all(dir);
  }
  // The drill is only interesting if kills actually interrupt the load;
  // with the delays above, most iterations must die mid-stream.
  if (iterations >= 10) {
    EXPECT_GE(kills_before_finish, iterations / 4)
        << "kill delays never caught the load mid-flight; tighten them";
  }
}

/// `roots` roots of the streaming-window chain with trailing
/// commit_through watermarks, the long-lived-session shape of DESIGN.md
/// §13 (the stream bench_longsession produces).
std::vector<workload::TraceEvent> ChainEvents(uint32_t roots,
                                              uint32_t window) {
  std::vector<workload::TraceEvent> events;
  workload::WindowChain chain(window);
  for (uint32_t i = 0; i < roots; ++i) chain.NextRoot(events);
  return events;
}

/// Watermark variant of the drill: the stream carries commit_through
/// events, so the WAL's APPEND records carry them and recovery replays
/// only the live suffix of derived state — yet must reach exactly the
/// verdict of a full (unpruned) replay and of the batch oracle.
TEST(CrashRecoveryDrill, WatermarkedSessionsReplayLiveSuffixOnly) {
  const size_t iterations = std::max<size_t>(1, (Iterations() + 3) / 4);
  constexpr uint32_t kRoots = 240;
  constexpr uint32_t kWindow = 8;
  // Live derived state is O(window): a window of unsealed roots (2 nodes
  // each) plus the not-yet-covered tail; 6x headroom, same bound the soak
  // test enforces.  A recovery that replays the full history unpruned
  // holds ~2*kRoots nodes and trips this immediately.
  constexpr size_t kLiveBound = 6 * (kWindow + 1) * 2;
  const std::vector<workload::TraceEvent> events =
      ChainEvents(kRoots, kWindow);
  const size_t first_watermark = [&] {
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == workload::TraceEventKind::kCommitThrough)
        return i;
    }
    return events.size();
  }();

  size_t kills_before_finish = 0;
  for (size_t iter = 0; iter < iterations; ++iter) {
    SCOPED_TRACE(StrCat("iteration ", iter));
    Rng rng(0xF10A7ull * (iter + 1));
    const fs::path dir = Scratch() / StrCat("wm_iter_", iter);
    const fs::path data = dir / "data";
    const fs::path port_file = dir / "port.txt";
    fs::create_directories(dir);

    const uint64_t kill_delay_ms =
        rng.UniformInt(10) + (iter % 5 == 4 ? 100 : 0);
    const char* fsync = (iter % 2 == 0) ? "always" : "none";
    // WAL-only on odd iterations so the logged watermarks are
    // still in the log when we read it back (snapshots compact them into
    // the sealed-roots state).
    const uint64_t snapshot_events = (iter % 2 == 0) ? 64 : 0;

    const pid_t pid = SpawnServer(
        {"--port", "0", "--port-file", port_file.string(), "--data-dir",
         data.string(), "--fsync", fsync, "--fsync-interval-ms", "1",
         "--snapshot-events", StrCat(snapshot_events), "--workers", "2"});
    ASSERT_GT(pid, 0);
    const int port = AwaitPort(port_file, pid);
    ASSERT_GT(port, 0) << "server did not come up";
    service::Endpoint endpoint;
    endpoint.port = port;

    StreamState stream;
    stream.events = events;
    {
      auto control = service::ServiceClient::Dial(endpoint);
      ASSERT_TRUE(control.ok()) << control.status().ToString();
      auto id = control->Open("epoch_interval=16");
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      stream.id = *id;
    }
    std::atomic<bool> killed{false};
    std::thread appender([&endpoint, &killed, &stream] {
      auto client = service::ServiceClient::Dial(endpoint);
      if (!client.ok()) return;
      size_t cursor = 0;
      while (cursor < stream.events.size()) {
        const size_t n = std::min<size_t>(8, stream.events.size() - cursor);
        std::vector<workload::TraceEvent> batch(
            stream.events.begin() + cursor,
            stream.events.begin() + cursor + n);
        auto queued = client->Append(stream.id, batch);
        if (!queued.ok()) {
          EXPECT_TRUE(killed.load()) << queued.status().ToString();
          return;
        }
        cursor += n;
        stream.acked.store(cursor, std::memory_order_release);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_delay_ms));
    killed.store(true);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    appender.join();
    int wait_status = 0;
    ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wait_status));

    const size_t acked = stream.acked.load(std::memory_order_acquire);
    if (acked < stream.events.size()) ++kills_before_finish;

    // ---- offline: watermark records are durable, and the rebuilt
    // session holds only the live window of derived state.
    auto state = durability::ReadSessionDurableState(data.string(),
                                                     stream.id);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_GE(state->event_seq, acked);
    ASSERT_LE(state->event_seq, stream.events.size());
    if (snapshot_events == 0 && state->event_seq > first_watermark) {
      size_t watermark_records = 0;
      uint64_t highest = 0;
      for (const auto& record : state->wal_records) {
        if (record.type != durability::WalRecordType::kAppend) continue;
        for (const auto& event : record.events) {
          if (event.kind != workload::TraceEventKind::kCommitThrough) continue;
          ++watermark_records;
          highest = std::max<uint64_t>(highest, event.a);
        }
      }
      EXPECT_GT(watermark_records, 0u)
          << "durable stream passed a commit_through but no APPEND record "
          << "carries one";
      EXPECT_GT(highest, 0u);
      EXPECT_LE(highest, kRoots);
    }
    auto certifier = durability::RebuildCertifier(
        *state, online::CertifierOptions{});
    ASSERT_TRUE(certifier.ok()) << certifier.status().ToString();
    ASSERT_TRUE(
        durability::VerifyRecovery(**certifier, state->event_seq).ok());
    const online::CertifierStats stats = (*certifier)->Stats();
    EXPECT_LE(stats.live_nodes, kLiveBound)
        << "recovery replayed more than the live suffix (event_seq="
        << state->event_seq << ", watermark=" << stats.commit_watermark
        << ")";
    // Snapshot restore re-seals through synthesized commits, so the
    // watermark counter itself only survives when the logged watermarks
    // are still in the WAL suffix.
    if (snapshot_events == 0 && state->event_seq > first_watermark) {
      EXPECT_GT(stats.commit_watermark, 0u);
    }
    // Same verdict as a full unpruned replay of the durable prefix, and
    // as the batch oracle.
    const std::vector<workload::TraceEvent> prefix(
        stream.events.begin(), stream.events.begin() + state->event_seq);
    online::CertifierOptions unpruned_options;
    unpruned_options.auto_prune = false;
    online::Certifier unpruned(unpruned_options);
    for (const auto& event : prefix) {
      ASSERT_TRUE(unpruned.Ingest(event).ok());
    }
    EXPECT_EQ((*certifier)->Certifiable(), unpruned.Certifiable());
    EXPECT_EQ((*certifier)->Certifiable(), BatchVerdict(prefix));

    // ---- online: restart, finish the stream, uninterrupted verdict.
    fs::remove(port_file);
    const pid_t pid2 = SpawnServer(
        {"--port", "0", "--port-file", port_file.string(), "--data-dir",
         data.string(), "--fsync", fsync, "--snapshot-events",
         StrCat(snapshot_events), "--verify-recovery", "--workers", "2"});
    ASSERT_GT(pid2, 0);
    const int port2 = AwaitPort(port_file, pid2);
    ASSERT_GT(port2, 0) << "restart failed (recovery refused?)";
    endpoint.port = port2;
    auto control = service::ServiceClient::Dial(endpoint);
    ASSERT_TRUE(control.ok()) << control.status().ToString();
    auto verdict = control->Query(stream.id);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    const uint64_t recovered =
        verdict->events_accepted + verdict->events_rejected;
    ASSERT_GE(recovered, acked);
    ASSERT_LE(recovered, stream.events.size());
    for (size_t cursor = recovered; cursor < stream.events.size();) {
      const size_t n = std::min<size_t>(8, stream.events.size() - cursor);
      std::vector<workload::TraceEvent> batch(
          stream.events.begin() + cursor, stream.events.begin() + cursor + n);
      ASSERT_TRUE(control->Append(stream.id, batch).ok());
      cursor += n;
    }
    auto final_verdict = control->Close(stream.id);
    ASSERT_TRUE(final_verdict.ok()) << final_verdict.status().ToString();
    EXPECT_TRUE(final_verdict->certifiable);  // the chain is Comp-C
    EXPECT_EQ(final_verdict->events_accepted + final_verdict->events_rejected,
              stream.events.size());
    ASSERT_TRUE(control->Shutdown().ok());
    ASSERT_EQ(::waitpid(pid2, &wait_status, 0), pid2);
    ASSERT_TRUE(WIFEXITED(wait_status));
    ASSERT_EQ(WEXITSTATUS(wait_status), 0);
    EXPECT_TRUE(durability::ListDurableSessionIds(data.string()).empty());
    fs::remove_all(dir);
  }
  if (iterations >= 8) {
    EXPECT_GE(kills_before_finish, iterations / 4)
        << "kill delays never caught the load mid-flight; tighten them";
  }
}

}  // namespace
}  // namespace comptx
