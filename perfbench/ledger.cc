// The layer ledger: the traced run's per-layer metrics.  Each layer's
// public functions are called from outside on the workload's own
// generated inputs, so a slowdown or a win can be pinned to one layer:
//
//   online        Certifier::IngestBatch / Verdict / Stats
//   service       frame codec, in-process CertificationServer::Handle,
//                 ServiceClient round trips to a pinned comptx_serve
//   durability    WalWriter::Append / SyncForAck
//   core          CheckCompC at pool 1 and 2
//   analysis      SweepCompC
//   staticcheck   AnalyzeConfiguration
//   workload      the generators
//   distributed   TopologyRunner::Drive vs one in-process server
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "analysis/sweep.h"
#include "core/correctness.h"
#include "distributed/topology.h"
#include "durability/wal.h"
#include "gen.h"
#include "online/certifier.h"
#include "proc.h"
#include "service/protocol.h"
#include "service/server.h"
#include "staticcheck/analyzer.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using comptx::Status;
using comptx::workload::TraceEvent;
using comptx::workload::TraceEventKind;

namespace {

/// The workload's inputs as the ledger replays them: `streams` are whole
/// session streams (or traces), each cut into the request batches the
/// workload sends.
struct LedgerInput {
  std::vector<std::vector<Events>> streams;
  std::vector<comptx::CompositeSystem> systems;  // batch-checkable systems
  Events topology_trace;  // input for the replication comparison
  size_t events = 0;      // events over all streams
  size_t batches = 0;
  std::function<void()> generate;  // regenerates the inputs (timing only)
};

comptx::CompositeSystem SystemOf(const Events& events) {
  comptx::CompositeSystem cs;
  for (const auto& e : events) (void)comptx::workload::ApplyTraceEvent(cs, e);
  return cs;
}

LedgerInput MakeInput(const RunConfig& c) {
  LedgerInput in;
  const uint64_t seed = c.seed;
  if (c.workload == "stream_window") {
    // One session's first 16k events in the 256-event slices the server's
    // worker ingests; its first 4k events double as the batch-checkable
    // system.
    const size_t n = 1u << 14;
    StreamWindowGen gen(seed);
    Events events;
    gen.Next(n, events);
    in.streams.push_back(Chunk(events, 256));
    in.systems.push_back(SystemOf(Events(events.begin(), events.begin() + 4096)));
    in.topology_trace.assign(events.begin(), events.begin() + 4096);
    in.generate = [seed, n] {
      StreamWindowGen g(seed);
      Events e;
      g.Next(n, e);
    };
  } else {  // batch_audit
    std::vector<Execution> corpus = GenerateAuditCorpus(seed, 36);
    for (Execution& ex : corpus) {
      in.streams.push_back(Chunk(ex.events, 256));
      in.systems.push_back(std::move(ex.system));
    }
    in.topology_trace = corpus.front().events;
    in.generate = [seed] { (void)GenerateAuditCorpus(seed, 36); };
  }
  for (const auto& s : in.streams) {
    in.batches += s.size();
    for (const auto& b : s) in.events += b.size();
  }
  return in;
}

/// Repeats `pass` until `budget_s` has passed (at least once).
void Repeat(double budget_s, const std::function<void()>& pass) {
  const uint64_t end = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  do {
    pass();
  } while (NowNs() < end);
}

/// Accumulates timed calls.
struct Timer {
  double ns = 0;
  uint64_t calls = 0;
  template <typename F>
  auto Time(F&& f) {
    const uint64_t t0 = NowNs();
    auto result = f();
    ns += static_cast<double>(NowNs() - t0);
    ++calls;
    return result;
  }
  double PerCallUs() const { return calls == 0 ? 0 : ns / 1e3 / calls; }
};

comptx::service::Request AppendRequest(uint64_t session, const Events& batch) {
  comptx::service::Request request;
  request.kind = comptx::service::CommandKind::kAppend;
  request.session = session;
  request.events = batch;
  return request;
}

comptx::service::Request SessionRequest(comptx::service::CommandKind kind,
                                        uint64_t session) {
  comptx::service::Request request;
  request.kind = kind;
  request.session = session;
  return request;
}

/// Nodes under roots sealed by the stream's commit_through watermarks.
uint64_t SealedNodes(const std::vector<Events>& stream) {
  std::vector<uint64_t> root_of;  // node -> root ordinal
  uint64_t roots = 0;
  uint64_t watermark = 0;
  for (const Events& batch : stream) {
    for (const TraceEvent& e : batch) {
      if (e.kind == TraceEventKind::kRoot) {
        root_of.push_back(roots++);
      } else if (e.kind == TraceEventKind::kSub || e.kind == TraceEventKind::kLeaf) {
        root_of.push_back(e.parent < root_of.size() ? root_of[e.parent] : 0);
      } else if (e.kind == TraceEventKind::kCommitThrough) {
        watermark = std::max<uint64_t>(watermark, e.a);
      }
    }
  }
  return static_cast<uint64_t>(std::count_if(
      root_of.begin(), root_of.end(), [&](uint64_t r) { return r < watermark; }));
}

}  // namespace

void RunLedger(const RunConfig& c, RunResult& r, SpanLog& spans) {
  ScopedSpan ledger_span(spans, "ledger");
  const int64_t parent = ledger_span.index();
  LedgerInput in = MakeInput(c);
  const double slice = std::max(0.2, c.seconds / 10.0);

  // ---- online ------------------------------------------------------------
  Timer ingest;
  Timer verdict;
  uint64_t live_max = 0;
  uint64_t rebuilds = 0;
  uint64_t pruned = 0;
  {
    ScopedSpan span(spans, "ledger.online", parent);
    Repeat(slice, [&] {
      rebuilds = 0;
      pruned = 0;
      for (const auto& stream : in.streams) {
        comptx::online::Certifier certifier;
        for (const Events& batch : stream) {
          ++r.attempted;
          const size_t rejected =
              ingest.Time([&] { return certifier.IngestBatch(batch); });
          if (rejected != 0) r.Fail("bare engine rejected ledger events");
          verdict.Time([&] { return certifier.Verdict(); });
          live_max = std::max<uint64_t>(live_max, certifier.Stats().live_nodes);
        }
        const auto stats = certifier.Stats();
        rebuilds += stats.rebuilds;
        pruned += stats.pruned_nodes;
      }
    });
  }
  const double ingest_us_per_event =
      ingest.ns / 1e3 / (static_cast<double>(ingest.calls) / in.batches * in.events);
  uint64_t sealed = 0;
  for (const auto& stream : in.streams) sealed += SealedNodes(stream);
  r.Set("online.ingest_us_per_event", ingest_us_per_event, "us");
  r.Set("online.verdict_us", verdict.PerCallUs(), "us");
  r.Set("online.live_nodes_max", static_cast<double>(live_max), "count");
  r.Set("online.rebuilds", static_cast<double>(rebuilds), "count");
  r.Set("online.prune_yield",
        sealed == 0 ? 0.0 : static_cast<double>(pruned) / sealed, "ratio");

  // ---- service: codec ------------------------------------------------------
  Timer codec;
  {
    ScopedSpan span(spans, "ledger.codec", parent);
    Repeat(slice, [&] {
      for (const auto& stream : in.streams) {
        for (const Events& batch : stream) {
          const auto request = AppendRequest(1, batch);
          const bool ok = codec.Time([&] {
            const std::string bytes = comptx::service::EncodeRequestFrame(
                comptx::service::WireProtocol::kV2, request);
            comptx::service::FrameParser parser;
            parser.Feed(bytes.data(), bytes.size());
            comptx::service::WireFrame frame;
            auto next = parser.Next(frame);
            if (!next.ok() || !*next) return false;
            auto decoded = comptx::service::DecodeRequestFrame(frame);
            return decoded.ok() && decoded->events.size() == batch.size();
          });
          if (!ok) r.Fail("codec round trip lost events");
        }
      }
    });
  }
  r.Set("service.codec_us_per_frame", codec.PerCallUs(), "us");

  // ---- service: in-process Handle -------------------------------------------
  Timer handle;         // OPEN and CLOSE (drain) requests
  Timer handle_append;  // APPEND requests, also the wire comparison's base
  uint64_t handle_events = 0;
  {
    ScopedSpan span(spans, "ledger.handle", parent);
    comptx::service::ServerOptions options;
    options.workers = 1;
    comptx::service::CertificationServer server(options);
    Repeat(slice, [&] {
      for (const auto& stream : in.streams) {
        comptx::service::Request open;
        open.kind = comptx::service::CommandKind::kOpen;
        const auto opened = handle.Time([&] { return server.Handle(open); });
        const uint64_t id = opened.FieldInt("session");
        for (const Events& batch : stream) {
          const auto request = AppendRequest(id, batch);
          handle_append.Time([&] { return server.Handle(request); });
          handle_events += batch.size();
        }
        const auto closed = handle.Time([&] {
          return server.Handle(
              SessionRequest(comptx::service::CommandKind::kClose, id));
        });
        ++r.attempted;
        if (!closed.ok) r.Fail("in-process CLOSE failed");
      }
    });
    server.Shutdown();
  }
  const double handle_us_per_event =
      (handle.ns + handle_append.ns) / 1e3 / handle_events;
  r.Set("service.handle_us_per_event", handle_us_per_event - ingest_us_per_event,
        "us");

  // ---- service: wire --------------------------------------------------------
  {
    ScopedSpan span(spans, "ledger.wire", parent);
    Timer wire;
    ServerProcess server;
    const std::string dir = c.run_dir + "/ledger_wire";
    fs::create_directories(dir);
    Status s = server.Start(c.serve_binary, dir, {});
    auto client = s.ok() ? server.Dial()
                         : comptx::StatusOr<comptx::service::ServiceClient>(s);
    if (!client.ok()) {
      r.Fail("ledger server: " + client.status().ToString());
    } else {
      Repeat(slice, [&] {
        for (const auto& stream : in.streams) {
          auto id = client->Open();
          if (!id.ok()) {
            r.Fail("ledger OPEN refused");
            return;
          }
          for (const Events& batch : stream) {
            wire.Time([&] { return client->Append(*id, batch); });
          }
          (void)client->Close(*id);
        }
      });
    }
    server.Stop();
    r.Set("service.wire_us_per_request",
          wire.PerCallUs() - handle_append.PerCallUs(), "us");
  }

  // ---- durability --------------------------------------------------------
  {
    ScopedSpan span(spans, "ledger.wal", parent);
    const auto wal_pass = [&](comptx::durability::FsyncPolicy policy,
                              const std::string& name, Timer& append,
                              Timer& sync, double budget) {
      comptx::durability::Counters counters;
      const std::string path = c.run_dir + "/" + name;
      auto writer = comptx::durability::WalWriter::Create(path, policy, &counters);
      if (!writer.ok()) {
        r.Fail("WAL create: " + writer.status().ToString());
        return;
      }
      uint64_t seq = 0;
      const uint64_t end = NowNs() + static_cast<uint64_t>(budget * 1e9);
      for (bool done = false; !done;) {
        for (const auto& stream : in.streams) {
          for (const Events& batch : stream) {
            comptx::durability::WalRecord record;
            record.type = comptx::durability::WalRecordType::kAppend;
            record.seq = seq;
            record.events = batch;
            seq += batch.size();
            append.Time([&] { return (*writer)->Append(record); });
            sync.Time([&] { return (*writer)->SyncForAck(); });
            if (NowNs() >= end) {
              done = true;
              break;
            }
          }
          if (done) break;
        }
      }
      writer->reset();
      fs::remove(path);
    };
    Timer append;
    Timer sync;
    wal_pass(comptx::durability::FsyncPolicy::kNone, "ledger_none.wal", append,
             sync, slice);
    Timer disk_append;
    Timer disk_sync;
    wal_pass(comptx::durability::FsyncPolicy::kAlways, "ledger_always.wal",
             disk_append, disk_sync, slice / 2);
    r.Set("durability.wal_append_us", append.PerCallUs(), "us");
    r.Set("durability.sync_for_ack_us", sync.PerCallUs(), "us");
    r.Set("durability.sync_for_ack_disk_us", disk_sync.PerCallUs(), "us");
  }

  // ---- core / analysis / staticcheck ---------------------------------------
  comptx::ReductionOptions reduction;
  reduction.validate = false;
  reduction.keep_fronts = false;
  const auto check_pass = [&](size_t threads) {
    comptx::ThreadPool::SetGlobalThreads(threads);
    Timer t;
    Repeat(slice / 2, [&] {
      for (const auto& cs : in.systems) {
        t.Time([&] { return comptx::CheckCompC(cs, reduction); });
      }
    });
    return t.ns / 1e6 / t.calls;
  };
  {
    ScopedSpan span(spans, "ledger.core", parent);
    r.Set("core.check_ms_pool1", check_pass(1), "ms");
    r.Set("core.check_ms_pool2", check_pass(2), "ms");
  }
  {
    ScopedSpan span(spans, "ledger.sweep", parent);
    std::vector<const comptx::CompositeSystem*> systems;
    for (const auto& cs : in.systems) systems.push_back(&cs);
    Timer sweep;
    Repeat(slice, [&] {
      sweep.Time([&] { return comptx::analysis::SweepCompC(systems, reduction); });
    });
    r.Set("analysis.sweep_ms_per_trace",
          sweep.ns / 1e6 / (static_cast<double>(sweep.calls) * systems.size()),
          "ms");
  }
  {
    ScopedSpan span(spans, "ledger.static", parent);
    Timer analyze;
    Repeat(slice / 2, [&] {
      for (const auto& cs : in.systems) {
        analyze.Time([&] { return comptx::staticcheck::AnalyzeConfiguration(cs); });
      }
    });
    r.Set("staticcheck.analyze_us", analyze.PerCallUs(), "us");
  }

  // ---- workload ------------------------------------------------------------
  {
    ScopedSpan span(spans, "ledger.gen", parent);
    Timer gen;
    Repeat(slice / 2, [&] { gen.Time([&] { in.generate(); return 0; }); });
    r.Set("workload.gen_us_per_event", gen.ns / 1e3 / gen.calls / in.events,
          "us");
  }

  // ---- distributed -------------------------------------------------------
  {
    ScopedSpan span(spans, "ledger.distributed", parent);
    const Events& trace = in.topology_trace;
    // One in-process server certifying the same trace.
    comptx::service::ServerOptions options;
    options.workers = 1;
    comptx::service::CertificationServer single(options);
    std::vector<double> single_s;
    for (int rep = 0; rep < 5; ++rep) {
      const uint64_t t0 = NowNs();
      auto id = single.Open("");
      if (!id.ok()) break;
      for (const Events& batch : Chunk(trace, 256)) (void)single.Append(*id, batch);
      (void)single.Close(*id);
      single_s.push_back(SecondsSince(t0));
    }
    single.Shutdown();
    auto spec = comptx::distributed::ParseTopologySpec(
        "# comptx-topology v1\nnode root\nnode left\nnode right\n"
        "edge root left\nedge root right\n");
    comptx::distributed::RunnerOptions ropt;
    ropt.serve_binary = c.serve_binary;
    ropt.data_root = c.run_dir + "/ledger_topology";
    ropt.phases = 4;
    ropt.fsync = "none";
    fs::create_directories(ropt.data_root);
    double drive_s = 0;
    {
      comptx::distributed::TopologyRunner runner(*spec, ropt);
      Status s = runner.Start();
      if (s.ok()) {
        const uint64_t t0 = NowNs();
        auto report = runner.Drive(trace);
        drive_s = SecondsSince(t0);
        ++r.attempted;
        if (!report.ok()) r.Fail("ledger drive: " + report.status().ToString());
      } else {
        r.Fail("ledger topology: " + s.ToString());
      }
      // The runner's destructor SIGKILLs and reaps the nodes; a graceful
      // SHUTDOWN would wait out the root's upstream long-polls.
    }
    const double single_med = single_s.empty() ? 0 : Median(single_s);
    r.Set("distributed.replication_overhead",
          single_med > 0 ? drive_s / single_med : 0, "ratio");
  }
}

}  // namespace perfbench
