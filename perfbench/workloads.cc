#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sweep.h"
#include "core/correctness.h"
#include "durability/wal.h"
#include "gen.h"
#include "online/certifier.h"
#include "proc.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace fs = std::filesystem;
using comptx::Status;
using comptx::service::ServiceClient;

namespace {

// Set-up is repeated and its median reported, so work moved into set-up
// shows without one slow spawn deciding the number.
constexpr int kSetupReps = 5;

// Throughput is the median of per-block rates: a stall of the machine
// costs one block, not the run.
constexpr double kBlockSeconds = 0.5;

// Yardstick passes between timed blocks (about 3 ms each): a few
// hundred over a run make its median machine speed precise.
constexpr int kYardPasses = 4;

// stream_window shape.
constexpr size_t kStreamSessions = 4;
// Appends of 64 events: the worker still ingests slices of up to 256
// (four queued appends), and four times as many acks dilute the VM's
// millisecond scheduling stalls in the ack latencies (see NOTES.md).
constexpr size_t kStreamBatch = 64;
constexpr int kStreamWarmupRounds = 64;
constexpr size_t kStreamRoundsPerQuery = 2;
constexpr uint64_t kStreamSessionEvents = 1u << 16;  // then CLOSE + reopen
// The batch gate replays every session's first kStreamCheckPoint events
// (the timed checks, all of one size), and the first session of each
// slot up to its CLOSE.
constexpr uint64_t kStreamCheckPoint = 1u << 14;
// Every kProbeRounds rounds a short session replays one execution of a
// mixed corpus, so the served verdicts are checked in both directions.
constexpr size_t kProbeCorpus = 64;
constexpr size_t kProbeRounds = 64;

// batch_audit shape.
constexpr size_t kAuditCorpus = 144;
constexpr size_t kAuditPool = 2;
constexpr size_t kAuditChunk = 16;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ull + salt * 0xD1B54A32D192ED03ull + 1;
}

/// Exact percentile of raw nanosecond samples, reported in µs (or
/// `unit` at `scale` ns per unit).  Records the sample count and how many
/// lie beyond; a percentile without kMinSamplesBeyond samples past it is
/// not reported (the driver then fails the run for the missing metric).
void ReportLatency(RunResult& r, const std::string& name,
                   const std::vector<double>& ns, double q,
                   double scale = 1e3, const std::string& unit = "us") {
  const Percentile p = Quantile(ns, q);
  r.info[name + ".samples"] = static_cast<double>(p.samples);
  r.info[name + ".beyond"] = static_cast<double>(p.beyond);
  if (p.reportable()) r.Set(name, p.value / scale, unit);
}

/// The APPEND ack tail as diagnostics: exact p90/p99/p99.5 in µs, each
/// with ≥10 samples beyond it.  Not gated — on this class of VM the tail
/// follows host scheduling stalls more than the code (NOTES.md).
void ReportAckTail(RunResult& r, const std::vector<double>& ns) {
  std::vector<double> sorted = ns;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [tag, q] : {std::pair{"p90", 0.9}, std::pair{"p99", 0.99},
                               std::pair{"p995", 0.995}}) {
    const Percentile p = QuantileOfSorted(sorted, q);
    if (p.reportable()) r.info[std::string("append_") + tag + "_us"] = p.value / 1e3;
  }
}

/// Per-block rates, reported as their median.  In a traced run the span
/// log is switched on and off block by block, and adjacent block pairs
/// give the tracing overhead (PairedOverheadPct).
class Rates {
 public:
  explicit Rates(SpanLog& spans) : spans_(spans) {}

  void Add(double rate) {
    rates_.push_back(rate);
    traced_.push_back(spans_.enabled());
    spans_.Flip();
  }

  void Report(RunResult& r, const std::string& name,
              const std::string& unit) const {
    r.info[name + ".blocks"] = static_cast<double>(rates_.size());
    if (!rates_.empty()) r.Set(name, Median(rates_), unit);
    double pct = 0;
    if (spans_.alternating() && PairedOverheadPct(rates_, traced_, pct)) {
      r.Set("trace.overhead_pct", pct, "%");
    }
  }

 private:
  SpanLog& spans_;
  std::vector<double> rates_;
  std::vector<bool> traced_;
};

/// Prices a workload's events in WAL bytes: appends them as APPEND
/// records through a WalWriter (no fsync) and reports bytes per event.
class WalMeter {
 public:
  WalMeter(const std::string& path, RunResult& r) : path_(path), r_(r) {
    auto writer = comptx::durability::WalWriter::Create(
        path, comptx::durability::FsyncPolicy::kNone, &counters_);
    if (writer.ok()) {
      writer_ = std::move(writer).value();
    } else {
      r.Fail("WAL create: " + writer.status().ToString());
    }
  }
  ~WalMeter() {
    writer_.reset();
    fs::remove(path_);
  }

  void Append(Events events) {
    if (writer_ == nullptr) return;
    comptx::durability::WalRecord record;
    record.type = comptx::durability::WalRecordType::kAppend;
    record.seq = events_;
    events_ += events.size();
    record.events = std::move(events);
    if (!writer_->Append(record).ok()) r_.Fail("WAL append failed");
  }

  void Report() {
    if (events_ == 0) return;
    r_.Set("wal_bytes_per_event",
           static_cast<double>(counters_.wal_bytes.load()) /
               static_cast<double>(events_),
           "B");
  }

 private:
  std::string path_;
  RunResult& r_;
  comptx::durability::Counters counters_;
  std::unique_ptr<comptx::durability::WalWriter> writer_;
  uint64_t events_ = 0;
};

bool BatchVerdict(const comptx::CompositeSystem& cs, RunResult& r) {
  comptx::ReductionOptions options;
  options.validate = false;
  options.keep_fronts = false;
  auto verdict = comptx::CheckCompC(cs, options);
  if (!verdict.ok()) {
    r.Fail("CheckCompC: " + verdict.status().ToString());
    return false;
  }
  return verdict->correct;
}

/// Runs `setup` kSetupReps times, tearing down all but the last, and
/// records the median time as setup_s.  Yardstick passes before each
/// set-up give the machine speed during set-up.
Status RepeatSetup(RunResult& r, Yardstick& yard,
                   const std::function<Status()>& setup,
                   const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    yard.Sample(kYardPasses);
    const uint64_t t0 = NowNs();
    Status s = setup();
    if (!s.ok()) return s;
    times.push_back(SecondsSince(t0));
    if (rep + 1 < kSetupReps) teardown();
  }
  r.Set("setup_s", Median(times), "s");
  return Status::OK();
}

// ---- stream_window -----------------------------------------------------

class StreamWindow {
 public:
  StreamWindow(const RunConfig& c, SpanLog& spans, Yardstick& yard)
      : c_(c), spans_(spans), yard_(yard) {}

  RunResult Run() {
    RunResult r;
    Status s = RepeatSetup(
        r, yard_, [&] { return Setup(r); }, [&] { server_.Stop(); });
    if (!s.ok()) {
      r.Fail("setup: " + s.ToString());
      return r;
    }
    const size_t setup_passes = yard_.passes();
    Loop(r);
    client_.reset();
    const ChildUsage usage = server_.Stop();
    if (certified_ > 0) {
      r.Set("cpu_us_per_event",
            usage.cpu_s * 1e6 / static_cast<double>(certified_), "us");
    }
    r.Set("peak_rss_mb", usage.peak_rss_mb, "MB");
    ReportAtNominalSpeed(yard_, setup_passes, r);
    Check(r);
    return r;
  }

 private:
  struct Sess {
    uint64_t id = 0;
    size_t slot = 0;
    uint64_t limit = 0;  // events before the session closes
    uint64_t seed = 0;
    std::unique_ptr<StreamWindowGen> gen;
    uint64_t sent = 0;
    uint64_t accepted = 0;
    uint64_t answered_at = 0;  // stream length at the last QUERY/CLOSE
    bool prefix_checked = false;  // its first kStreamCheckPoint events
  };

  Status Open(size_t slot) {
    Sess x;
    x.slot = slot;
    // The first sessions retire at staggered lengths, so the slots never
    // hold full-length sessions all at once and server memory stays level.
    x.limit = generation_[slot] == 0
                  ? kStreamSessionEvents * (slot + 1) / kStreamSessions
                  : kStreamSessionEvents;
    x.seed = SubSeed(c_.seed, slot * 1000 + generation_[slot]++);
    x.gen = std::make_unique<StreamWindowGen>(x.seed);
    auto id = client_->Open();
    if (!id.ok()) return id.status();
    x.id = *id;
    sessions_[slot] = std::move(x);
    return Status::OK();
  }

  Status Setup(RunResult& r) {
    const std::string dir = c_.run_dir + "/stream";
    fs::create_directories(dir);
    COMPTX_RETURN_IF_ERROR(server_.Start(c_.serve_binary, dir, {}));
    auto client = server_.Dial();
    if (!client.ok()) return client.status();
    client_.emplace(std::move(client).value());
    sessions_.clear();
    sessions_.resize(kStreamSessions);
    generation_.assign(kStreamSessions, 0);
    checked_.clear();
    timed_next_ = 0;
    certified_ = 0;
    probes_ = GenerateProbeCorpus(SubSeed(c_.seed, 7), kProbeCorpus);
    probe_next_ = 0;
    probe_rejections_ = 0;
    for (size_t i = 0; i < kStreamSessions; ++i) COMPTX_RETURN_IF_ERROR(Open(i));
    // Warm-up: enough rounds that allocators, the engine's level
    // structures and the prune cycle are in steady state before timing.
    for (int round = 0; round < kStreamWarmupRounds; ++round) {
      for (Sess& x : sessions_) Append(x, r, nullptr);
    }
    for (Sess& x : sessions_) Query(x, r, nullptr);
    return Status::OK();
  }

  void Append(Sess& x, RunResult& r, std::vector<double>* samples) {
    Events batch;
    batch.reserve(kStreamBatch);
    {
      ScopedSpan span(spans_, "stream.gen", -1, x.id);
      x.gen->Next(kStreamBatch, batch);
    }
    ++r.attempted;
    ScopedSpan span(spans_, "stream.append", -1, x.id);
    const uint64_t t0 = NowNs();
    auto queued = client_->Append(x.id, batch);
    const uint64_t t1 = NowNs();
    if (!queued.ok() || *queued != batch.size()) {
      r.Fail("append refused: " +
             (queued.ok() ? std::to_string(*queued) : queued.status().ToString()));
      return;
    }
    if (samples != nullptr) samples->push_back(static_cast<double>(t1 - t0));
    x.sent += batch.size();
  }

  /// QUERY (or CLOSE) drain barrier; the stream is certifiable by
  /// construction and every event applies, so anything else is a
  /// mismatch.
  void Query(Sess& x, RunResult& r, std::vector<double>* samples,
             bool close = false) {
    ++r.attempted;
    ScopedSpan span(spans_, close ? "stream.close" : "stream.query", -1, x.id);
    const uint64_t t0 = NowNs();
    auto v = close ? client_->Close(x.id) : client_->Query(x.id);
    const uint64_t t1 = NowNs();
    if (!v.ok()) {
      r.Fail("query refused: " + v.status().ToString());
      return;
    }
    if (samples != nullptr) samples->push_back(static_cast<double>(t1 - t0));
    if (!v->certifiable || v->events_accepted != x.sent ||
        v->events_rejected != 0) {
      r.Fail("stream verdict mismatch at " + std::to_string(x.sent) +
             " events: accepted " + std::to_string(v->events_accepted) +
             " rejected " + std::to_string(v->events_rejected));
    }
    certified_ += v->events_accepted - x.accepted;
    x.accepted = v->events_accepted;
    x.answered_at = x.sent;
  }

  /// A short session over one probe execution: OPEN, its events in
  /// kStreamBatch appends, CLOSE.  The CLOSE verdict must equal the batch
  /// verdict computed at set-up, so a server that accepted everything
  /// would fail here.  Probe events and timings stay out of the metrics.
  void Probe(RunResult& r) {
    const Execution& ex = probes_[probe_next_++ % probes_.size()];
    ScopedSpan span(spans_, "stream.probe");
    ++r.attempted;
    auto id = client_->Open();
    if (!id.ok()) {
      r.Fail("probe open refused: " + id.status().ToString());
      return;
    }
    for (const Events& chunk : Chunk(ex.events, kStreamBatch)) {
      auto queued = client_->Append(*id, chunk);
      if (!queued.ok() || *queued != chunk.size()) {
        r.Fail("probe append refused");
        return;
      }
    }
    auto v = client_->Close(*id);
    if (!v.ok()) {
      r.Fail("probe close refused: " + v.status().ToString());
      return;
    }
    if (v->certifiable != ex.comp_c || v->events_accepted != ex.events.size() ||
        v->events_rejected != 0) {
      r.Fail("probe verdict mismatch: server " + std::to_string(v->certifiable) +
             " batch " + std::to_string(ex.comp_c));
    }
    if (!ex.comp_c) ++probe_rejections_;
  }

  void Loop(RunResult& r) {
    std::vector<double> append_ns;
    std::vector<double> verdict_ns;
    std::vector<double> check_ns;
    Rates rates(spans_);
    uint64_t block_start = NowNs();
    uint64_t block_count = certified_;
    const uint64_t end = NowNs() + static_cast<uint64_t>(c_.seconds * 1e9);
    for (size_t round = 0;; ++round) {
      for (Sess& x : sessions_) Append(x, r, &append_ns);
      if (round % kProbeRounds == kProbeRounds - 1) Probe(r);
      // One session answers a QUERY every kStreamRoundsPerQuery rounds, so
      // the others keep several rounds of batches queued and the worker
      // does not idle when the client is slow to send the next round.
      if (round % kStreamRoundsPerQuery != 0) continue;
      const size_t i = round / kStreamRoundsPerQuery % sessions_.size();
      Sess& x = sessions_[i];
      // A session that reached its length closes (CLOSE is its verdict
      // barrier) and a fresh one takes its slot, so server memory and the
      // per-session history stay the same from run to run.
      const bool retire = x.sent >= x.limit;
      Query(x, r, &verdict_ns, retire);
      if (retire) {
        checked_.push_back(std::move(x));
        Status s = Open(i);
        if (!s.ok()) r.Fail("reopen: " + s.ToString());
      }
      if (SecondsSince(block_start) >= kBlockSeconds) {
        // A block ends with a QUERY to every session (not a verdict
        // sample): the server drains, so every event sent in the block is
        // certified within it, and the gate check and yardstick passes
        // below run while the server, which shares the CPU, is idle.
        for (Sess& other : sessions_) Query(other, r, nullptr);
        rates.Add(static_cast<double>(certified_ - block_count) /
                  SecondsSince(block_start));
        // One timed gate check per block, on the oldest retired session
        // not yet checked.  Spread over the window, the checks see the
        // same machine as the rest of the run; the block clock restarts
        // after the check, so the check does not count against the stream.
        if (timed_next_ < checked_.size()) {
          Sess& done = checked_[timed_next_++];
          ScopedSpan span(spans_, "stream.check", -1, done.id);
          check_ns.push_back(ReplayCheck(done, {kStreamCheckPoint}, r, nullptr));
          done.prefix_checked = true;
        }
        yard_.Sample(kYardPasses);
        block_start = NowNs();
        block_count = certified_;
      }
      if (NowNs() >= end || r.failed > 0) break;
    }
    for (Sess& x : sessions_) checked_.push_back(std::move(x));
    rates.Report(r, "events_per_s", "1/s");
    ReportLatency(r, "check_p50_ms", check_ns, 0.5, 1e6, "ms");
    r.info["probe.sessions"] = static_cast<double>(probe_next_);
    r.info["probe.rejections"] = static_cast<double>(probe_rejections_);
    if (probe_rejections_ == 0) r.Fail("no probe checked a rejection");
    ReportLatency(r, "append_p50_us", append_ns, 0.5);
    ReportAckTail(r, append_ns);
    ReportLatency(r, "verdict_p50_us", verdict_ns, 0.5);
  }

  /// Rebuilds session `x`'s stream from its seed and runs batch
  /// CheckCompC at each of `cuts` (ascending).  The server said
  /// certifiable at or past every cut, and a prefix of a Comp-C execution
  /// is Comp-C, so batch must say Comp-C there.  The events up to the
  /// first cut go through `wal` when given, to price their durable
  /// encoding.  Returns the time of the first check in ns.
  double ReplayCheck(const Sess& x, const std::vector<uint64_t>& cuts,
                     RunResult& r, WalMeter* wal) {
    StreamWindowGen gen(x.seed);
    comptx::CompositeSystem cs;
    uint64_t applied = 0;
    double first_ns = -1;
    for (uint64_t cut : cuts) {
      Events chunk;
      gen.Next(cut - applied, chunk);
      for (const auto& e : chunk) {
        Status s = comptx::workload::ApplyTraceEvent(cs, e);
        if (!s.ok()) r.Fail("batch replay rejects: " + s.ToString());
      }
      if (applied == 0 && wal != nullptr) {
        for (Events& batch : Chunk(chunk, kStreamBatch)) wal->Append(std::move(batch));
      }
      applied = cut;
      ++r.attempted;
      const uint64_t t0 = NowNs();
      const bool comp_c = BatchVerdict(cs, r);
      if (first_ns < 0) first_ns = static_cast<double>(NowNs() - t0);
      if (!comp_c) {
        r.Fail("batch says not Comp-C at " + std::to_string(cut) +
               " events; the server said certifiable");
      }
    }
    return first_ns;
  }

  /// The rest of the batch gate, after the window: every session's first
  /// kStreamCheckPoint events unless a timed check already covered them,
  /// and the first session of each slot up to its CLOSE.
  void Check(RunResult& r) {
    ScopedSpan span(spans_, "stream.verify");
    WalMeter wal(c_.run_dir + "/stream_check.wal", r);
    std::vector<bool> deep(kStreamSessions, true);
    for (const Sess& x : checked_) {
      if (x.answered_at < kStreamCheckPoint) continue;
      std::vector<uint64_t> cuts;
      if (!x.prefix_checked) cuts.push_back(kStreamCheckPoint);
      if (deep[x.slot] && x.answered_at >= x.limit) {
        cuts.push_back(x.answered_at);
        deep[x.slot] = false;
      }
      if (!cuts.empty()) ReplayCheck(x, cuts, r, &wal);
    }
    wal.Report();
  }

  const RunConfig& c_;
  SpanLog& spans_;
  Yardstick& yard_;
  ServerProcess server_;
  std::optional<ServiceClient> client_;
  std::vector<Sess> sessions_;
  std::vector<uint64_t> generation_;  // sessions opened per slot
  std::vector<Sess> checked_;         // every session, for the batch gate
  size_t timed_next_ = 0;             // next retired session to time
  uint64_t certified_ = 0;
  std::vector<Execution> probes_;
  size_t probe_next_ = 0;
  uint64_t probe_rejections_ = 0;
};

// ---- batch_audit -------------------------------------------------------

class BatchAudit {
 public:
  BatchAudit(const RunConfig& c, SpanLog& spans, Yardstick& yard)
      : c_(c), spans_(spans), yard_(yard) {}

  RunResult Run() {
    RunResult r;
    Status s = RepeatSetup(r, yard_, [&] { return Setup(); }, [] {});
    if (!s.ok()) {
      r.Fail("setup: " + s.ToString());
      return r;
    }
    const size_t setup_passes = yard_.passes();
    Loop(r);
    PriceWal(r);
    r.Set("peak_rss_mb", SelfPeakRssMb(), "MB");
    ReportAtNominalSpeed(yard_, setup_passes, r);
    return r;
  }

 private:
  Status Setup() {
    corpus_ = GenerateAuditCorpus(c_.seed, kAuditCorpus);
    systems_.clear();
    chunks_.clear();
    corpus_events_ = 0;
    for (const Execution& ex : corpus_) {
      systems_.push_back(&ex.system);
      chunks_.push_back(Chunk(ex.events, kAuditChunk));
      corpus_events_ += ex.events.size();
    }
    comptx::ThreadPool::SetGlobalThreads(kAuditPool);
    (void)comptx::analysis::SweepCompC(systems_, Options());  // warm-up
    return Status::OK();
  }

  static comptx::ReductionOptions Options() {
    comptx::ReductionOptions options;
    options.validate = false;
    options.keep_fronts = false;
    return options;
  }

  /// Every round runs the whole corpus three ways: one SweepCompC, one
  /// CheckCompC per trace, and one fresh online certifier per trace.
  /// Each round does the same work, so the per-round figures and their
  /// medians do not depend on how many rounds fit in the run.
  void Loop(RunResult& r) {
    Rates rates(spans_);
    std::vector<double> append_ns;
    std::vector<double> check_ms;    // per round: mean one-trace check
    std::vector<double> verdict_us;  // per round: mean online certification
    uint64_t events = 0;
    const double cpu0 = SelfCpuSeconds() - yard_.cpu_seconds();
    const uint64_t end = NowNs() + static_cast<uint64_t>(c_.seconds * 1e9);
    while (NowNs() < end && r.failed == 0) {
      std::vector<comptx::analysis::SweepVerdict> verdicts;
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span(spans_, "audit.sweep");
        verdicts = comptx::analysis::SweepCompC(systems_, Options());
      }
      const double sweep_s = SecondsSince(t0);
      yard_.Sample(kYardPasses / 2);
      for (size_t i = 0; i < verdicts.size(); ++i) {
        ++r.attempted;
        if (!verdicts[i].ok || verdicts[i].comp_c != corpus_[i].comp_c) {
          r.Fail("sweep verdict mismatch on trace " + std::to_string(i));
        }
      }
      // One-trace latency, the comptx_certify user's view.
      double check_ns = 0;
      for (const Execution& ex : corpus_) {
        ++r.attempted;
        ScopedSpan span(spans_, "audit.check");
        const uint64_t t1 = NowNs();
        auto v = comptx::CheckCompC(ex.system, Options());
        check_ns += static_cast<double>(NowNs() - t1);
        if (!v.ok() || v->correct != ex.comp_c) r.Fail("check verdict mismatch");
      }
      yard_.Sample(kYardPasses / 2);
      double online_ns = 0;
      for (size_t i = 0; i < corpus_.size(); ++i) online_ns += Online(i, r, append_ns);
      yard_.Sample(kYardPasses / 2);
      events += 3 * corpus_events_;
      const double n = static_cast<double>(corpus_.size());
      check_ms.push_back(check_ns / 1e6 / n);
      verdict_us.push_back(online_ns / 1e3 / n);
      rates.Add(static_cast<double>(corpus_events_) / sweep_s);
    }
    // The driver's own CPU, less the yardstick passes taken in between.
    const double cpu = SelfCpuSeconds() - yard_.cpu_seconds() - cpu0;
    rates.Report(r, "events_per_s", "1/s");
    r.info["rounds"] = static_cast<double>(check_ms.size());
    if (!check_ms.empty()) {
      r.Set("check_p50_ms", Median(check_ms), "ms");
      r.Set("verdict_p50_us", Median(verdict_us), "us");
    }
    ReportLatency(r, "append_p50_us", append_ns, 0.5);
    ReportAckTail(r, append_ns);
    if (events > 0) {
      r.Set("cpu_us_per_event", cpu * 1e6 / static_cast<double>(events), "us");
    }
  }

  /// Cross-checks trace `i`'s batch verdict against a fresh online
  /// certifier fed in kAuditChunk-event batches.  Each batch is this
  /// in-process path's "append"; ingesting the whole trace and reading
  /// its verdict is its "verdict".  Returns the verdict time in ns.
  double Online(size_t i, RunResult& r, std::vector<double>& append_ns) {
    ++r.attempted;
    ScopedSpan span(spans_, "audit.online");
    const uint64_t start = NowNs();
    comptx::online::Certifier certifier;
    for (const Events& chunk : chunks_[i]) {
      const uint64_t t0 = NowNs();
      const size_t rejected = certifier.IngestBatch(chunk);
      append_ns.push_back(static_cast<double>(NowNs() - t0));
      if (rejected != 0) r.Fail("online certifier rejected audit events");
    }
    const bool certifiable = certifier.Verdict().certifiable;
    const double ns = static_cast<double>(NowNs() - start);
    if (certifiable != corpus_[i].comp_c) {
      r.Fail("online certifier disagrees with batch on an audit trace");
    }
    return ns;
  }

  /// The corpus's WAL encoding, untimed: every trace's batches appended
  /// once through a WalWriter.
  void PriceWal(RunResult& r) {
    WalMeter wal(c_.run_dir + "/audit.wal", r);
    for (const auto& chunks : chunks_) {
      for (const Events& chunk : chunks) wal.Append(chunk);
    }
    wal.Report();
  }

  const RunConfig& c_;
  SpanLog& spans_;
  Yardstick& yard_;
  std::vector<Execution> corpus_;
  std::vector<const comptx::CompositeSystem*> systems_;
  std::vector<std::vector<Events>> chunks_;  // per trace, as ingested
  uint64_t corpus_events_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"stream_window", "batch_audit"};
  return names;
}

namespace {

/// Every end-to-end metric with the way it moves with machine speed.
const std::vector<std::pair<std::string, Scale>>& EndToEndScales() {
  static const std::vector<std::pair<std::string, Scale>> metrics = {
      {"setup_s", Scale::kWallTime},
      {"events_per_s", Scale::kRate},
      {"cpu_us_per_event", Scale::kCpuTime},
      {"append_p50_us", Scale::kWallTime},
      {"verdict_p50_us", Scale::kWallTime},
      {"check_p50_ms", Scale::kWallTime},
      {"peak_rss_mb", Scale::kNone},
      {"wal_bytes_per_event", Scale::kNone}};
  return metrics;
}

}  // namespace

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& [name, scale] : EndToEndScales()) out.push_back(name);
    return out;
  }();
  return names;
}

void ReportAtNominalSpeed(const Yardstick& yard, size_t setup_passes,
                          RunResult& r) {
  const double setup = yard.WallFactor(0, setup_passes);
  const double wall = yard.WallFactor(setup_passes);
  const double cpu = yard.CpuFactor(setup_passes);
  r.info["yardstick.passes"] = static_cast<double>(yard.passes());
  r.info["yardstick.setup_factor"] = setup;
  r.info["yardstick.wall_factor"] = wall;
  r.info["yardstick.cpu_factor"] = cpu;
  r.info["yardstick.churn_us"] = yard.median_part_ns(0) / 1e3;
  r.info["yardstick.chase_us"] = yard.median_part_ns(1) / 1e3;
  r.info["yardstick.alu_us"] = yard.median_part_ns(2) / 1e3;
  for (const auto& [name, scale] : EndToEndScales()) {
    auto it = r.metrics.find(name);
    if (it == r.metrics.end() || scale == Scale::kNone) continue;
    r.info["raw." + name] = it->second.value;
    it->second.value = AtNominalSpeed(it->second.value, scale,
                                      name == "setup_s" ? setup : wall, cpu);
  }
}

RunResult RunWorkload(const RunConfig& config, SpanLog& spans, Yardstick& yard) {
  if (config.workload == "stream_window") {
    return StreamWindow(config, spans, yard).Run();
  }
  if (config.workload == "batch_audit") return BatchAudit(config, spans, yard).Run();
  RunResult r;
  r.Fail("unknown workload " + config.workload);
  return r;
}

}  // namespace perfbench
