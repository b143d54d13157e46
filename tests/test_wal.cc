// Tests for the src/durability subsystem (ctest label `durability`):
// CRC framing, WAL write/read round trips, torn-write and bit-flip
// robustness of the reader (it must never crash and must report the
// precise truncation point), snapshot encode/decode, certifier state
// capture/restore equivalence, WAL compaction, and the offline recovery
// path (ReadSessionDurableState + RebuildCertifier + VerifyRecovery).
// The process-kill crash drill lives in test_crash_recovery.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/correctness.h"
#include "durability/manager.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "online/certifier.h"
#include "online/state_io.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "util/string_util.h"
#include "workload/event_codec.h"
#include "workload/event_streams.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

#include "wal_w1.h"

namespace comptx::durability {
namespace {

namespace fs = std::filesystem;

/// A per-process scratch directory (ctest runs cases in parallel as
/// separate processes).
fs::path Scratch() {
  static const fs::path dir = [] {
    fs::path p = fs::path(::testing::TempDir()) /
                 StrCat("comptx_wal_", static_cast<unsigned long>(::getpid()));
    fs::create_directories(p);
    return p;
  }();
  return dir;
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
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

/// Batch ground truth, exactly as the online certifier treats a stream.
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

/// Builds a clean WAL at `path` out of `records` via the writer, fsynced.
std::unique_ptr<WalWriter> BuildWal(const fs::path& path,
                                    const std::vector<WalRecord>& records,
                                    Counters* counters) {
  auto writer = WalWriter::Create(path.string(), FsyncPolicy::kNone, counters);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (const WalRecord& record : records) {
    auto lsn = (*writer)->Append(record);
    EXPECT_TRUE(lsn.ok()) << lsn.status().ToString();
  }
  EXPECT_TRUE((*writer)->SyncNow().ok());
  return std::move(writer).value();
}

std::vector<WalRecord> SampleRecords(size_t appends) {
  std::vector<WalRecord> records;
  WalRecord open;
  open.type = WalRecordType::kOpen;
  open.options = "forgetting=true epoch_interval=8";
  records.push_back(open);
  const auto events = GeneratedEvents(4, 77);
  uint64_t seq = 1;
  size_t cursor = 0;
  for (size_t i = 0; i < appends && cursor < events.size(); ++i) {
    WalRecord append;
    append.type = WalRecordType::kAppend;
    append.seq = seq;
    const size_t n = std::min<size_t>(3 + i, events.size() - cursor);
    append.events.assign(events.begin() + cursor, events.begin() + cursor + n);
    cursor += n;
    seq += n;
    records.push_back(append);
  }
  WalRecord seal;
  seal.type = WalRecordType::kSeal;
  seal.seq = seq - 1;
  seal.accepted = seq - 1;
  seal.rejected = 0;
  seal.certifiable = true;
  records.push_back(seal);
  return records;
}

void ExpectSameRecord(const WalRecord& got, const WalRecord& want,
                      size_t lsn) {
  EXPECT_EQ(got.type, want.type) << "lsn " << lsn;
  EXPECT_EQ(got.seq, want.seq) << "lsn " << lsn;
  EXPECT_EQ(got.options, want.options) << "lsn " << lsn;
  EXPECT_EQ(got.accepted, want.accepted) << "lsn " << lsn;
  EXPECT_EQ(got.rejected, want.rejected) << "lsn " << lsn;
  EXPECT_EQ(got.certifiable, want.certifiable) << "lsn " << lsn;
  ASSERT_EQ(got.events.size(), want.events.size()) << "lsn " << lsn;
  for (size_t i = 0; i < got.events.size(); ++i) {
    EXPECT_EQ(workload::FormatTraceEvent(got.events[i]),
              workload::FormatTraceEvent(want.events[i]))
        << "lsn " << lsn << " event " << i;
  }
}

// ----------------------------------------------------------------- crc

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Sensitive to every byte.
  EXPECT_NE(Crc32("123456789", 9), Crc32("123456788", 9));
  EXPECT_NE(Crc32("123456789", 9), Crc32("123456789", 8));
}

// ------------------------------------------------------ codec round trip

TEST(WalCodecTest, AllRecordTypesRoundTripThroughTheReader) {
  const fs::path path = Scratch() / "roundtrip.wal";
  std::vector<WalRecord> records = SampleRecords(4);
  WalRecord evict;
  evict.type = WalRecordType::kEvict;
  evict.seq = 17;
  records.push_back(evict);
  WalRecord resume;
  resume.type = WalRecordType::kResume;
  resume.seq = 17;
  records.push_back(resume);
  WalRecord close;
  close.type = WalRecordType::kClose;
  close.seq = 29;
  records.push_back(close);

  Counters counters;
  std::string bytes(kWalMagic, sizeof(kWalMagic));
  for (const WalRecord& record : records) bytes += EncodeWalRecord(record);
  WriteBytes(path, bytes);

  auto scan = ReadWalFile(path.string());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->clean) << scan->damage;
  EXPECT_EQ(scan->valid_bytes, bytes.size());
  ASSERT_EQ(scan->records.size(), records.size());
  EXPECT_EQ(scan->truncation_lsn, records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectSameRecord(scan->records[i], records[i], i);
  }
}

/// The captured w1 file's two records.
std::vector<WalRecord> CapturedW1Records() {
  WalRecord open;
  open.type = WalRecordType::kOpen;
  open.options = "epoch_interval=8";
  WalRecord append;
  append.type = WalRecordType::kAppend;
  append.seq = 1;
  for (const char* line : {"schedule S", "root 0 T", "leaf 0 x", "commit 0"}) {
    auto event = workload::ParseTraceEventLine(line);
    EXPECT_TRUE(event.ok()) << line;
    append.events.push_back(*event);
  }
  return {open, append};
}

TEST(WalCodecTest, AComptxw1FileStillDecodes) {
  const std::vector<WalRecord> records = CapturedW1Records();
  const std::string captured = testing::HexBytes(testing::kCapturedW1WalHex);
  // The test's w1 packer reproduces a real w1 writer byte for byte, so the
  // old-data-dir tests below exercise the format servers actually wrote.
  EXPECT_EQ(testing::W1WalBytes(records), captured);

  const fs::path path = Scratch() / "captured_w1.wal";
  WriteBytes(path, captured);
  auto scan = ReadWalFile(path.string());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->w1);
  EXPECT_TRUE(scan->clean) << scan->damage;
  ASSERT_EQ(scan->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectSameRecord(scan->records[i], records[i], i);
  }
}

TEST(WalCodecTest, AnAppendBodyIsTheBatchAppendPayload) {
  // One event codec: after the record header ([u8 type][u64 seq]) a w2
  // APPEND payload is byte for byte the payload of a v2 BATCH_APPEND
  // frame carrying the same events.
  const WalRecord append = CapturedW1Records()[1];
  const std::string frame = EncodeWalRecord(append);
  service::Request request;
  request.kind = service::CommandKind::kAppend;
  request.session = 1;
  request.events = append.events;
  const std::string wire =
      service::EncodeRequestFrame(service::WireProtocol::kV2, request);
  EXPECT_EQ(frame.substr(8 + 9), wire.substr(service::kWireHeaderBytes));
  // Frame header, record header, then a 14-byte body (the w1 body of the
  // same four events took 91).
  EXPECT_EQ(frame.size(), 8u + 9u + 14u);
}

TEST(WalWriterTest, CreateAppendReadBackAndCounters) {
  const fs::path path = Scratch() / "writer.wal";
  Counters counters;
  const std::vector<WalRecord> records = SampleRecords(3);
  auto writer = BuildWal(path, records, &counters);
  EXPECT_EQ(writer->next_lsn(), records.size());

  auto scan = ReadWalFile(path.string());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->clean) << scan->damage;
  ASSERT_EQ(scan->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectSameRecord(scan->records[i], records[i], i);
  }
  // 3 of the records are APPENDs; every byte written (magic header
  // included) is accounted.
  EXPECT_EQ(counters.wal_appends.load(), 3u);
  EXPECT_EQ(counters.wal_bytes.load(), ReadBytes(path).size());
  EXPECT_GE(counters.fsyncs.load(), 1u);
}

TEST(WalWriterTest, SyncForAckOnlyFsyncsUnderAlways) {
  Counters counters;
  auto writer = WalWriter::Create((Scratch() / "acknone.wal").string(),
                                  FsyncPolicy::kNone, &counters);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(SampleRecords(1)[0]).ok());
  ASSERT_TRUE((*writer)->SyncForAck().ok());
  EXPECT_EQ(counters.fsyncs.load(), 0u);

  auto always = WalWriter::Create((Scratch() / "ackalways.wal").string(),
                                  FsyncPolicy::kAlways, &counters);
  ASSERT_TRUE(always.ok());
  ASSERT_TRUE((*always)->Append(SampleRecords(1)[0]).ok());
  ASSERT_TRUE((*always)->SyncForAck().ok());
  EXPECT_GE(counters.fsyncs.load(), 1u);
}

// ------------------------------------------------- torn and corrupt tails

TEST(WalReaderTest, EveryTruncationPointYieldsThePrefixAndThePreciseLsn) {
  const fs::path clean = Scratch() / "sweep.wal";
  Counters counters;
  const std::vector<WalRecord> records = SampleRecords(4);
  BuildWal(clean, records, &counters);
  const std::string bytes = ReadBytes(clean);
  ASSERT_EQ(bytes.substr(0, 8), "comptxw2");

  // Frame boundaries: offset just past each frame (EncodeWalRecord
  // returns the whole frame, header included).
  std::vector<size_t> boundaries;
  {
    size_t offset = sizeof(kWalMagic);
    for (const WalRecord& record : records) {
      offset += EncodeWalRecord(record).size();
      boundaries.push_back(offset);
    }
    ASSERT_EQ(offset, bytes.size());
  }

  const fs::path torn = Scratch() / "sweep_torn.wal";
  for (size_t len = sizeof(kWalMagic); len < bytes.size(); ++len) {
    WriteBytes(torn, bytes.substr(0, len));
    auto scan = ReadWalFile(torn.string());
    ASSERT_TRUE(scan.ok()) << "len " << len << ": "
                           << scan.status().ToString();
    // The result is exactly the fully contained frames.
    size_t contained = 0;
    while (contained < boundaries.size() && boundaries[contained] <= len) {
      ++contained;
    }
    EXPECT_EQ(scan->records.size(), contained) << "len " << len;
    EXPECT_EQ(scan->truncation_lsn, contained) << "len " << len;
    const size_t valid =
        contained == 0 ? sizeof(kWalMagic) : boundaries[contained - 1];
    EXPECT_EQ(scan->valid_bytes, valid) << "len " << len;
    EXPECT_EQ(scan->clean, valid == len) << "len " << len;
    if (!scan->clean) {
      EXPECT_FALSE(scan->damage.empty()) << "len " << len;
      // Repair cuts the tail; the re-read is clean and identical.
      ASSERT_TRUE(RepairWalFile(torn.string(), *scan).ok()) << "len " << len;
      auto again = ReadWalFile(torn.string());
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(again->clean);
      EXPECT_EQ(again->records.size(), contained);
    }
  }
}

TEST(WalReaderTest, BitFlipsStopTheScanAtTheDamagedFrame) {
  const fs::path clean = Scratch() / "flip.wal";
  Counters counters;
  const std::vector<WalRecord> records = SampleRecords(4);
  BuildWal(clean, records, &counters);
  const std::string bytes = ReadBytes(clean);
  ASSERT_EQ(bytes.substr(0, 8), "comptxw2");

  std::vector<size_t> boundaries;  // offset just past each frame
  {
    size_t offset = sizeof(kWalMagic);
    for (const WalRecord& record : records) {
      offset += EncodeWalRecord(record).size();
      boundaries.push_back(offset);
    }
  }
  const auto frame_of = [&](size_t offset) {
    size_t frame = 0;
    while (boundaries[frame] <= offset) ++frame;
    return frame;
  };

  const fs::path flipped = Scratch() / "flip_bad.wal";
  for (size_t offset = sizeof(kWalMagic); offset < bytes.size(); ++offset) {
    std::string damaged = bytes;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0xFF);
    WriteBytes(flipped, damaged);
    auto scan = ReadWalFile(flipped.string());
    ASSERT_TRUE(scan.ok()) << "offset " << offset;
    // A flip in frame i leaves exactly the frames before i readable (a
    // corrupted frame passing its own CRC would need a 2^-32 collision).
    EXPECT_EQ(scan->records.size(), frame_of(offset)) << "offset " << offset;
    EXPECT_FALSE(scan->clean) << "offset " << offset;
    EXPECT_FALSE(scan->damage.empty()) << "offset " << offset;
  }
}

TEST(WalReaderTest, ZeroFilledTailsAndHolesAreDetected) {
  const fs::path clean = Scratch() / "zeros.wal";
  Counters counters;
  const std::vector<WalRecord> records = SampleRecords(3);
  BuildWal(clean, records, &counters);
  const std::string bytes = ReadBytes(clean);
  ASSERT_EQ(bytes.substr(0, 8), "comptxw2");

  // A zero-extended tail (a filesystem that allocated but never wrote):
  // all real records survive, the tail is reported as damage.
  const fs::path extended = Scratch() / "zeros_tail.wal";
  WriteBytes(extended, bytes + std::string(512, '\0'));
  auto scan = ReadWalFile(extended.string());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), records.size());
  EXPECT_FALSE(scan->clean);
  EXPECT_EQ(scan->valid_bytes, bytes.size());
  ASSERT_TRUE(RepairWalFile(extended.string(), *scan).ok());
  EXPECT_EQ(ReadBytes(extended).size(), bytes.size());

  // A zero-filled hole mid-file: the scan stops at the hole's frame.
  const fs::path holed = Scratch() / "zeros_hole.wal";
  std::string damaged = bytes;
  const size_t hole_at = bytes.size() / 2;
  for (size_t i = hole_at; i < bytes.size(); ++i) damaged[i] = '\0';
  WriteBytes(holed, damaged);
  auto hole_scan = ReadWalFile(holed.string());
  ASSERT_TRUE(hole_scan.ok());
  EXPECT_LT(hole_scan->records.size(), records.size());
  EXPECT_FALSE(hole_scan->clean);
  EXPECT_LE(hole_scan->valid_bytes, hole_at);
}

TEST(WalReaderTest, GarbageAndEmptyFilesNeverCrash) {
  const fs::path missing = Scratch() / "missing.wal";
  EXPECT_FALSE(ReadWalFile(missing.string()).ok());

  const fs::path empty = Scratch() / "empty.wal";
  WriteBytes(empty, "");
  EXPECT_FALSE(ReadWalFile(empty.string()).ok());  // no magic: not a WAL

  const fs::path short_magic = Scratch() / "short.wal";
  WriteBytes(short_magic, "comp");
  EXPECT_FALSE(ReadWalFile(short_magic.string()).ok());

  const fs::path wrong_magic = Scratch() / "wrong.wal";
  WriteBytes(wrong_magic, "NOTAWAL!" + std::string(100, 'x'));
  EXPECT_FALSE(ReadWalFile(wrong_magic.string()).ok());

  // Valid magic followed by garbage: zero records, damage reported.
  const fs::path garbage = Scratch() / "garbage.wal";
  WriteBytes(garbage,
             std::string(kWalMagic, sizeof(kWalMagic)) +
                 "\xde\xad\xbe\xef garbage that is not a frame at all");
  auto scan = ReadWalFile(garbage.string());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_FALSE(scan->clean);
  EXPECT_EQ(scan->valid_bytes, sizeof(kWalMagic));

  // A frame length past the sanity cap is corruption, not an allocation.
  const fs::path huge = Scratch() / "huge.wal";
  std::string huge_bytes(kWalMagic, sizeof(kWalMagic));
  const uint32_t huge_len = kMaxWalPayloadBytes + 1;
  for (int shift = 0; shift < 32; shift += 8) {
    huge_bytes.push_back(static_cast<char>((huge_len >> shift) & 0xFF));
  }
  huge_bytes += std::string(64, 'z');
  WriteBytes(huge, huge_bytes);
  auto huge_scan = ReadWalFile(huge.string());
  ASSERT_TRUE(huge_scan.ok());
  EXPECT_TRUE(huge_scan->records.empty());
  EXPECT_FALSE(huge_scan->clean);
}

TEST(WalReaderTest, AnEventCountPastThePayloadIsDamageNotAnAllocation) {
  // An APPEND frame with a valid CRC that claims 2^32-1 events in a few
  // bytes: the count is checked against the bytes left before anything is
  // sized for it, in both formats.
  for (const bool w1 : {false, true}) {
    std::string payload;
    workload::PutU8(payload, static_cast<uint8_t>(WalRecordType::kAppend));
    workload::PutU64(payload, 1);
    if (w1) {
      workload::PutU32(payload, UINT32_MAX);
    } else {
      workload::AppendVarint(payload, UINT32_MAX);
    }
    payload += std::string(16, '\x01');
    WalRecord open;
    open.type = WalRecordType::kOpen;
    std::string bytes = w1 ? testing::W1WalBytes({open})
                           : std::string(kWalMagic, sizeof(kWalMagic)) +
                                 EncodeWalRecord(open);
    const size_t valid = bytes.size();
    workload::PutU32(bytes, static_cast<uint32_t>(payload.size()));
    workload::PutU32(bytes, Crc32(payload.data(), payload.size()));
    bytes += payload;

    const fs::path path = Scratch() / (w1 ? "count_w1.wal" : "count_w2.wal");
    WriteBytes(path, bytes);
    auto scan = ReadWalFile(path.string());
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->w1, w1);
    EXPECT_EQ(scan->records.size(), 1u) << "w1=" << w1;
    EXPECT_FALSE(scan->clean) << "w1=" << w1;
    EXPECT_EQ(scan->valid_bytes, valid) << "w1=" << w1;
    EXPECT_NE(scan->damage.find("implausible event count"), std::string::npos)
        << scan->damage;
  }
}

// ------------------------------------------------------------- snapshots

/// The first `count` or more events of a streaming-window chain (the
/// stream_window workload's shape), so most of the session is pruned
/// while it runs.
std::vector<workload::TraceEvent> WindowChainEvents(size_t count,
                                                    uint32_t window) {
  std::vector<workload::TraceEvent> events;
  workload::WindowChain chain(window);
  while (events.size() < count) chain.NextRoot(events);
  return events;
}

/// Every stream field of CertifierStats.
void ExpectSameStreamStats(const online::Certifier& a,
                           const online::Certifier& b,
                           const std::string& where) {
  const online::CertifierStats x = a.Stats();
  const online::CertifierStats y = b.Stats();
  EXPECT_EQ(x.events_accepted, y.events_accepted) << where;
  EXPECT_EQ(x.events_rejected, y.events_rejected) << where;
  EXPECT_EQ(x.sealed_roots, y.sealed_roots) << where;
  EXPECT_EQ(x.commit_watermark, y.commit_watermark) << where;
  EXPECT_EQ(x.pruned_nodes, y.pruned_nodes) << where;
  EXPECT_EQ(x.live_nodes, y.live_nodes) << where;
  EXPECT_EQ(x.window_span, y.window_span) << where;
}


TEST(SnapshotTest, RoundTripsAndRejectsCorruption) {
  const auto events = GeneratedEvents(6, 909);
  online::CertifierOptions copts;
  online::Certifier certifier(copts);
  for (const auto& event : events) (void)certifier.Ingest(event);

  Snapshot snapshot;
  snapshot.session_id = 42;
  snapshot.event_seq = events.size();
  snapshot.options = "epoch_interval=16 auto_prune=false";
  auto state = online::CaptureCertifierState(certifier);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  snapshot.state = *state;

  const std::string bytes = EncodeSnapshot(snapshot);
  auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->session_id, 42u);
  EXPECT_EQ(decoded->event_seq, events.size());
  EXPECT_EQ(decoded->options, snapshot.options);
  EXPECT_EQ(decoded->state.trace, state->trace);
  EXPECT_EQ(decoded->state.sealed, state->sealed);
  EXPECT_EQ(decoded->state.accepted, state->accepted);
  EXPECT_EQ(decoded->state.rejected, state->rejected);
  EXPECT_EQ(decoded->state.certifiable, state->certifiable);
  EXPECT_EQ(decoded->state.live_ids, state->live_ids);
  EXPECT_EQ(decoded->state.live_root_ordinals, state->live_root_ordinals);
  EXPECT_EQ(decoded->state.node_count, state->node_count);
  EXPECT_EQ(decoded->state.root_count, state->root_count);
  EXPECT_EQ(decoded->state.commit_watermark, state->commit_watermark);
  EXPECT_EQ(decoded->state.invokes, state->invokes);
  EXPECT_FALSE(state->invokes.empty());

  // All-or-nothing: every single-byte flip makes the decode fail.
  for (size_t offset = 0; offset < bytes.size(); offset += 7) {
    std::string damaged = bytes;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x55);
    EXPECT_FALSE(DecodeSnapshot(damaged).ok()) << "offset " << offset;
  }
  EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(DecodeSnapshot("").ok());

  // File round trip + NotFound for a missing path.
  const fs::path path = Scratch() / "s42.snap";
  ASSERT_TRUE(WriteSnapshotFile(path.string(), snapshot).ok());
  auto read = ReadSnapshotFile(path.string());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->state.trace, state->trace);
  auto absent = ReadSnapshotFile((Scratch() / "absent.snap").string());
  EXPECT_EQ(absent.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, RestoresAComptxs1Image) {
  // A pre-window image: the trace is the whole history numbered by id and
  // the sealed list names every sealed root, pruned or not, in seal order.
  // It restores by full replay to the same window.
  const auto events = WindowChainEvents(600, 8);
  online::Certifier original{online::CertifierOptions{}};
  CompositeSystem history;
  for (const auto& event : events) {
    ASSERT_TRUE(original.Ingest(event).ok());
    ASSERT_TRUE(workload::ApplyTraceEvent(history, event).ok());
  }
  const online::CertifierStats stats = original.Stats();
  ASSERT_GT(stats.pruned_nodes, 0u);
  auto trace = workload::SaveTrace(history);
  ASSERT_TRUE(trace.ok());

  std::string payload;
  const auto put = [&](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      payload.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  const std::string options = "auto_prune=true";
  put(5, 8);                      // session id
  put(events.size(), 8);          // event seq
  put(stats.events_accepted, 8);
  put(stats.events_rejected, 8);
  put(original.Certifiable() ? 1 : 0, 1);
  put(options.size(), 4);
  payload += options;
  put(stats.commit_watermark, 4);  // roots 0..W-1, sealed in that order
  for (uint64_t r = 0; r < stats.commit_watermark; ++r) put(2 * r, 4);
  put(trace->size(), 8);
  payload += *trace;
  std::string bytes(kSnapshotMagicV1, sizeof(kSnapshotMagicV1));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  for (uint32_t v : {len, crc}) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  bytes += payload;

  auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->session_id, 5u);
  EXPECT_EQ(decoded->options, options);
  EXPECT_TRUE(decoded->state.live_ids.empty());
  auto restored = online::RestoreCertifierState(decoded->state, {});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const online::CertifierStats back = (*restored)->Stats();
  EXPECT_EQ((*restored)->Certifiable(), original.Certifiable());
  EXPECT_EQ(back.events_accepted, stats.events_accepted);
  EXPECT_EQ(back.events_rejected, stats.events_rejected);
  EXPECT_EQ(back.sealed_roots, stats.sealed_roots);
  EXPECT_EQ(back.pruned_nodes, stats.pruned_nodes);
  EXPECT_EQ(back.live_nodes, stats.live_nodes);
  EXPECT_EQ((*restored)->SerialWitness(), original.SerialWitness());
  // comptxs1 never stored the watermark.
  EXPECT_EQ(back.commit_watermark, 0u);
}

// -------------------------------------------- certifier state round trip

TEST(StateIoTest, CaptureRestoreIsReplayEquivalent) {
  struct Case {
    std::string name;
    std::vector<workload::TraceEvent> events;
    bool seal_by_hand;  // commit the first root, then commit_through 2
  };
  std::vector<Case> cases;
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    cases.push_back({StrCat("seed ", seed), GeneratedEvents(8, seed), true});
  }
  cases.push_back({"window chain", WindowChainEvents(2000, 16), false});
  size_t pruned_cases = 0;
  for (const Case& c : cases) {
    const auto& events = c.events;
    online::CertifierOptions copts;
    online::Certifier original(copts);
    const size_t half = events.size() / 2;
    for (size_t i = 0; i < half; ++i) (void)original.Ingest(events[i]);
    if (c.seal_by_hand) {
      // Seal a couple of roots so the sealed list and the watermark are
      // exercised too.
      auto roots = original.system().Roots();
      ASSERT_GE(roots.size(), 2u) << c.name;
      ASSERT_TRUE(original.Commit(roots[0]).ok());
      workload::TraceEvent mark;
      mark.kind = workload::TraceEventKind::kCommitThrough;
      mark.a = 2;
      ASSERT_TRUE(original.Ingest(mark).ok());
    }
    ASSERT_GT(original.Stats().commit_watermark, 0u) << c.name;

    auto state = online::CaptureCertifierState(original);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    // The image is the live window: pruned ids are in neither the trace
    // nor the id table, and batch on the window gives the verdict.  The
    // session's own system, with released ids, refuses batch analysis.
    const online::CertifierStats stats = original.Stats();
    EXPECT_EQ(state->live_ids.size(), stats.live_nodes) << c.name;
    EXPECT_EQ(state->node_count, original.system().NodeCount()) << c.name;
    auto window = workload::LoadTrace(state->trace);
    ASSERT_TRUE(window.ok()) << window.status().ToString();
    EXPECT_EQ(window->NodeCount(), stats.live_nodes) << c.name;
    ReductionOptions batch_options;
    batch_options.validate = false;
    auto batch = CheckCompC(*window, batch_options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->correct, original.Certifiable()) << c.name;
    if (stats.pruned_nodes > 0) {
      EXPECT_EQ(CheckCompC(original.system(), batch_options).status().code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(original.system().Validate().code(),
                StatusCode::kFailedPrecondition);
    }
    auto restored = online::RestoreCertifierState(*state, copts);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();

    // Identical verdict and stream counters at the capture point...
    EXPECT_EQ((*restored)->Certifiable(), original.Certifiable()) << c.name;
    ExpectSameStreamStats(**restored, original, c.name + " at capture");
    EXPECT_EQ((*restored)->SerialWitness(), original.SerialWitness())
        << c.name;

    // ...and identical behavior on the rest of the stream: the restored
    // session and the original must accept/reject and judge the suffix
    // exactly alike (replay equivalence, DESIGN.md §11.3).
    for (size_t i = half; i < events.size(); ++i) {
      const bool a = original.Ingest(events[i]).ok();
      const bool b = (*restored)->Ingest(events[i]).ok();
      EXPECT_EQ(a, b) << c.name << " event " << i;
    }
    EXPECT_EQ((*restored)->Certifiable(), original.Certifiable()) << c.name;
    ExpectSameStreamStats(**restored, original, c.name + " at the end");
    if (stats.pruned_nodes > 0) ++pruned_cases;
  }
  EXPECT_GT(pruned_cases, 0u);
}

TEST(StateIoTest, RestoreKeepsInvocationEdgesThatPruningRemoved) {
  // Schedules R(0) > A(1) > B(2).  Root T0's A subtransaction invokes B —
  // the only A -> B link — and T0 is then committed and pruned.  The
  // window alone would put A at level 1; the session keeps level 2, so a
  // `sub` making B invoke A is still recursion, before and after a
  // capture/restore.
  const std::vector<std::string> lines = {
      "schedule R", "schedule A", "schedule B",
      "root 0 T0", "sub 0 1 a0", "sub 1 2 b0", "leaf 2 y0",   // ids 0-3
      "root 0 T1", "sub 4 1 a1", "leaf 5 x1",                  // ids 4-6
      "sub 4 2 d1", "leaf 7 z1",                               // ids 7-8
      "commit_through 1"};
  online::Certifier original{online::CertifierOptions{}};
  for (const std::string& line : lines) {
    auto event = workload::ParseTraceEventLine(line);
    ASSERT_TRUE(event.ok()) << line;
    ASSERT_TRUE(original.Ingest(*event).ok()) << line;
  }
  ASSERT_EQ(original.Stats().pruned_nodes, 4u);
  ASSERT_FALSE(original.system().HasNode(NodeId(2)));
  ASSERT_EQ(original.Verdict().order, 3u);

  auto state = online::CaptureCertifierState(original);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  auto window = workload::LoadTrace(state->trace);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window->NodeCount(), 5u);
  auto restored = online::RestoreCertifierState(*state, {});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->Verdict().order, original.Verdict().order);
  EXPECT_EQ((*restored)->system().NodeCount(), 9u);
  EXPECT_FALSE((*restored)->system().HasNode(NodeId(3)));
  EXPECT_TRUE((*restored)->system().HasNode(NodeId(8)));
  ExpectSameStreamStats(**restored, original, "after restore");

  auto recursive = workload::ParseTraceEventLine("sub 7 1 X");
  ASSERT_TRUE(recursive.ok());
  EXPECT_EQ(original.Ingest(*recursive).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*restored)->Ingest(*recursive).code(),
            StatusCode::kFailedPrecondition);
  // A pruned id is rejected like a sealed one, before and after restore.
  auto stale = workload::ParseTraceEventLine("leaf 1 late");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(original.Ingest(*stale).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*restored)->Ingest(*stale).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*restored)->Verdict().order, original.Verdict().order);
}

TEST(StateIoTest, CorruptTraceFailsTheRestore) {
  online::CertifierState state;
  state.trace = "this is not a trace\n";
  EXPECT_FALSE(
      online::RestoreCertifierState(state, online::CertifierOptions{}).ok());
}

// ------------------------------------------------- manager and compaction

TEST(ManagerTest, SnapshotCompactsTheWalPastTheWatermark) {
  const fs::path dir = Scratch() / "compact";
  Options options;
  options.dir = dir.string();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_events = 0;  // snapshots triggered manually here
  Counters counters;
  auto manager = Manager::Start(options, &counters);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  auto log = (*manager)->CreateLog(7, "epoch_interval=8");
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  const auto events = GeneratedEvents(6, 303);
  online::Certifier certifier{online::CertifierOptions{}};
  const size_t half = events.size() / 2;
  auto feed = [&](size_t from, size_t to) {
    std::vector<workload::TraceEvent> batch(events.begin() + from,
                                            events.begin() + to);
    ASSERT_TRUE((*log)->LogAppend(batch).ok());
    for (size_t i = from; i < to; ++i) (void)certifier.Ingest(events[i]);
    (*log)->OnIngested(to - from);
  };
  feed(0, half);
  ASSERT_TRUE((*log)->WriteSnapshot(certifier).ok());
  feed(half, events.size());

  // On disk now: snapshot at `half`, WAL = OPEN + SEAL + post-half
  // appends (every pre-watermark APPEND compacted away).
  auto scan = ReadWalFile(WalPath(dir.string(), 7));
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->clean) << scan->damage;
  ASSERT_GE(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].type, WalRecordType::kOpen);
  EXPECT_EQ(scan->records[1].type, WalRecordType::kSeal);
  EXPECT_EQ(scan->records[1].seq, half);
  size_t suffix_events = 0;
  for (size_t i = 2; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].type, WalRecordType::kAppend);
    EXPECT_GT(scan->records[i].seq, half);
    suffix_events += scan->records[i].events.size();
  }
  EXPECT_EQ(suffix_events, events.size() - half);
  EXPECT_EQ(counters.snapshots_written.load(), 1u);
  EXPECT_GT(counters.records_truncated.load(), 0u);

  auto snapshot = ReadSnapshotFile(SnapshotPath(dir.string(), 7));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->session_id, 7u);
  EXPECT_EQ(snapshot->event_seq, half);

  // CLOSE removes both files.
  ASSERT_TRUE((*log)->MarkClosedAndRemove().ok());
  EXPECT_FALSE(fs::exists(WalPath(dir.string(), 7)));
  EXPECT_FALSE(fs::exists(SnapshotPath(dir.string(), 7)));
}

// --------------------------------------------------------------- recovery

TEST(RecoveryTest, SnapshotPlusSuffixRebuildsTheExactSession) {
  const fs::path dir = Scratch() / "recover";
  Options options;
  options.dir = dir.string();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_events = 0;
  Counters counters;

  const auto events = GeneratedEvents(8, 404);
  const size_t third = events.size() / 3;
  {
    auto manager = Manager::Start(options, &counters);
    ASSERT_TRUE(manager.ok());
    auto log = (*manager)->CreateLog(3, "");
    ASSERT_TRUE(log.ok());
    online::Certifier certifier{online::CertifierOptions{}};
    auto feed = [&](size_t from, size_t to) {
      std::vector<workload::TraceEvent> batch(events.begin() + from,
                                              events.begin() + to);
      ASSERT_TRUE((*log)->LogAppend(batch).ok());
      for (size_t i = from; i < to; ++i) (void)certifier.Ingest(events[i]);
      (*log)->OnIngested(to - from);
    };
    feed(0, third);
    ASSERT_TRUE((*log)->WriteSnapshot(certifier).ok());
    feed(third, events.size());
    // Manager and log drop here without any lifecycle marker — exactly a
    // process death after the last append.
  }

  auto state = ReadSessionDurableState(dir.string(), 3);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_FALSE(state->closed);
  EXPECT_FALSE(state->evicted);
  EXPECT_TRUE(state->has_snapshot);
  EXPECT_EQ(state->snapshot.event_seq, third);
  EXPECT_EQ(state->event_seq, events.size());
  EXPECT_EQ(state->SuffixEvents().size(), events.size() - third);

  auto certifier =
      RebuildCertifier(*state, online::CertifierOptions{});
  ASSERT_TRUE(certifier.ok()) << certifier.status().ToString();
  EXPECT_TRUE(VerifyRecovery(**certifier, events.size()).ok());
  EXPECT_EQ((*certifier)->Certifiable(), BatchVerdict(events));
  const auto stats = (*certifier)->Stats();
  EXPECT_EQ(stats.events_accepted + stats.events_rejected, events.size());
}

// Logs written before commit_through rode in APPEND records carry each
// watermark as a record of its own, type 7: [u8 7][u64 seq][u64 root
// count].  The reader turns one into the APPEND of that single event, so
// such a log still recovers, watermark included.
TEST(RecoveryTest, ALegacyCommitWatermarkRecordRecoversAsAnAppend) {
  const fs::path dir = Scratch() / "legacy_watermark";
  fs::create_directories(dir);
  const auto append = [](uint64_t seq,
                         std::initializer_list<const char*> lines) {
    WalRecord record;
    record.type = WalRecordType::kAppend;
    record.seq = seq;
    for (const char* line : lines) {
      auto event = workload::ParseTraceEventLine(line);
      EXPECT_TRUE(event.ok()) << line;
      record.events.push_back(*event);
    }
    return record;
  };
  WalRecord open;
  open.type = WalRecordType::kOpen;
  std::string payload;
  workload::PutU8(payload, 7);
  workload::PutU64(payload, 6);  // seq: after the first five events
  workload::PutU64(payload, 1);  // commit_through 1
  std::string legacy;
  workload::PutU32(legacy, static_cast<uint32_t>(payload.size()));
  workload::PutU32(legacy, Crc32(payload.data(), payload.size()));
  legacy += payload;
  std::string bytes(kWalMagic, sizeof(kWalMagic));
  bytes += EncodeWalRecord(open);
  bytes += EncodeWalRecord(append(
      1, {"schedule S", "root 0 T0", "leaf 0 x0", "root 0 T1", "leaf 2 x1"}));
  bytes += legacy;
  bytes += EncodeWalRecord(append(7, {"root 0 T2", "leaf 4 x2"}));
  WriteBytes(WalPath(dir.string(), 5), bytes);

  auto state = ReadSessionDurableState(dir.string(), 5);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_TRUE(state->wal_scan.clean) << state->wal_scan.damage;
  ASSERT_EQ(state->wal_records.size(), 4u);
  const WalRecord& watermark = state->wal_records[2];
  EXPECT_EQ(watermark.type, WalRecordType::kAppend);
  EXPECT_EQ(watermark.seq, 6u);
  ASSERT_EQ(watermark.events.size(), 1u);
  EXPECT_EQ(workload::FormatTraceEvent(watermark.events[0]),
            "commit_through 1");
  EXPECT_EQ(state->event_seq, 8u);
  const std::vector<workload::TraceEvent> suffix = state->SuffixEvents();
  ASSERT_EQ(suffix.size(), 8u);
  EXPECT_EQ(suffix[5].kind, workload::TraceEventKind::kCommitThrough);

  auto certifier = RebuildCertifier(*state, online::CertifierOptions{});
  ASSERT_TRUE(certifier.ok()) << certifier.status().ToString();
  EXPECT_TRUE(VerifyRecovery(**certifier, state->event_seq).ok());
  EXPECT_EQ((*certifier)->Stats().commit_watermark, 1u);
}

TEST(RecoveryTest, LifecycleMarkersDriveTheStateMachine) {
  const fs::path dir = Scratch() / "lifecycle";
  Options options;
  options.dir = dir.string();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_events = 0;
  Counters counters;
  auto manager = Manager::Start(options, &counters);
  ASSERT_TRUE(manager.ok());

  const auto events = GeneratedEvents(4, 505);
  online::Certifier certifier{online::CertifierOptions{}};
  for (const auto& event : events) (void)certifier.Ingest(event);

  // Evicted session: EVICT is the last marker -> resumable, not live.
  auto log = (*manager)->CreateLog(11, "");
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->LogAppend(events).ok());
  (*log)->OnIngested(events.size());
  ASSERT_TRUE((*log)->PersistEvicted(certifier).ok());
  auto evicted = ReadSessionDurableState(dir.string(), 11);
  ASSERT_TRUE(evicted.ok());
  EXPECT_TRUE(evicted->evicted);
  EXPECT_FALSE(evicted->closed);

  // Resuming appends a RESUME marker: live again.
  auto adopted = (*manager)->AdoptLog(*evicted, /*resume=*/true);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  auto resumed = ReadSessionDurableState(dir.string(), 11);
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(resumed->evicted);
  EXPECT_EQ(resumed->event_seq, events.size());

  // ListDurableSessionIds sees the session until CLOSE removes it.
  auto ids = ListDurableSessionIds(dir.string());
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 11u);
  ASSERT_TRUE((*adopted)->MarkClosedAndRemove().ok());
  EXPECT_TRUE(ListDurableSessionIds(dir.string()).empty());
  EXPECT_EQ(ReadSessionDurableState(dir.string(), 11).status().code(),
            StatusCode::kNotFound);
}

TEST(RecoveryTest, AnAckedOpenAloneSurvivesButARecordlessFileDoesNot) {
  const fs::path dir = Scratch() / "open_only";
  Options options;
  options.dir = dir.string();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_events = 0;
  Counters counters;
  auto manager = Manager::Start(options, &counters);
  ASSERT_TRUE(manager.ok());

  // Default options, zero events: the fsynced OPEN is the only record,
  // and CreateLog acked it — recovery must keep this session even
  // though it has no snapshot, no events and an empty options string.
  auto log = (*manager)->CreateLog(21, "");
  ASSERT_TRUE(log.ok());
  auto state = ReadSessionDurableState(dir.string(), 21);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->event_seq, 0u);
  EXPECT_FALSE(state->Empty());

  // A WAL that died before its OPEN frame completed was never acked:
  // magic only, zero valid records — that is the discardable shape, in
  // the current format and in a comptxw1 data dir alike.
  for (const char* magic : {kWalMagic, kWalMagicV1}) {
    WriteBytes(WalPath(dir.string(), 22), std::string(magic, 8));
    auto unacked = ReadSessionDurableState(dir.string(), 22);
    ASSERT_TRUE(unacked.ok()) << unacked.status().ToString();
    EXPECT_TRUE(unacked->Empty()) << std::string(magic, 8);
  }
}

TEST(RecoveryTest, TornTailIsRepairedOnAdoptAndTheSuffixSurvives) {
  const fs::path dir = Scratch() / "torn_adopt";
  Options options;
  options.dir = dir.string();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_events = 0;
  Counters counters;

  const auto events = GeneratedEvents(6, 606);
  {
    auto manager = Manager::Start(options, &counters);
    ASSERT_TRUE(manager.ok());
    auto log = (*manager)->CreateLog(5, "epoch_interval=8");
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->LogAppend(events).ok());
  }
  // Tear the tail mid-frame: the last append loses its end.
  const std::string wal_path = WalPath(dir.string(), 5);
  const std::string bytes = ReadBytes(wal_path);
  WriteBytes(wal_path, bytes.substr(0, bytes.size() - 3));

  auto state = ReadSessionDurableState(dir.string(), 5);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_FALSE(state->wal_scan.clean);
  // The one append frame is the torn one: no events survive, but the
  // durable OPEN still names the session.
  EXPECT_EQ(state->event_seq, 0u);
  EXPECT_FALSE(state->Empty());

  auto manager = Manager::Start(options, &counters);
  ASSERT_TRUE(manager.ok());
  const uint64_t truncated_before = counters.records_truncated.load();
  auto adopted = (*manager)->AdoptLog(*state, /*resume=*/false);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_GT(counters.records_truncated.load(), truncated_before);
  // The repaired file is clean and appendable.
  ASSERT_TRUE((*adopted)->LogAppend(events).ok());
  auto rescan = ReadWalFile(wal_path);
  ASSERT_TRUE(rescan.ok());
  EXPECT_TRUE(rescan->clean) << rescan->damage;
}

TEST(RecoveryTest, RetiredStaticOptionsInTheOpenRecordStillRecover) {
  // Data dirs written while the certifier had static-admission and
  // paranoid modes store those keys in their OPEN options; startup
  // recovery must still parse them and rebuild the session.
  const fs::path dir = Scratch() / "retired_options";
  Options options;
  options.dir = dir.string();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_events = 0;
  Counters counters;

  const auto events = GeneratedEvents(6, 808);
  {
    auto manager = Manager::Start(options, &counters);
    ASSERT_TRUE(manager.ok());
    auto log = (*manager)->CreateLog(
        9, "static_admission=1 paranoid=1 epoch_interval=8");
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE((*log)->LogAppend(events).ok());
  }

  auto manager = Manager::Start(options, &counters);
  ASSERT_TRUE(manager.ok());
  service::ServiceMetrics metrics;
  service::SessionManager sessions(4, &metrics, manager->get());
  auto recovered = sessions.RecoverAll(service::SessionOptions{},
                                       /*verify=*/true);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 1u);
  auto session = sessions.Find(9);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const service::SessionVerdict verdict = (*session)->Verdict();
  EXPECT_EQ(verdict.events_accepted + verdict.events_rejected, events.size());
  EXPECT_EQ(verdict.certifiable, BatchVerdict(events));
}

TEST(RecoveryTest, AComptxw1DataDirRecoversAndIsRewrittenAsW2) {
  // A data dir written before the shared event codec: its WAL is
  // comptxw1.  Startup recovery must rebuild the session from it, rewrite
  // the file once as comptxw2 before any append, and a second restart
  // must read the rewritten file to the same verdict.
  const fs::path dir = Scratch() / "w1_data_dir";
  fs::create_directories(dir);
  const auto events = GeneratedEvents(6, 1717);
  WalRecord open;
  open.type = WalRecordType::kOpen;
  open.options = "epoch_interval=8";
  WalRecord first;
  first.type = WalRecordType::kAppend;
  first.seq = 1;
  first.events.assign(events.begin(), events.begin() + events.size() / 2);
  WalRecord second;
  second.type = WalRecordType::kAppend;
  second.seq = first.events.size() + 1;
  second.events.assign(events.begin() + events.size() / 2, events.end());
  const std::vector<WalRecord> records = {open, first, second};
  const std::string wal_path = WalPath(dir.string(), 11);
  WriteBytes(wal_path, testing::W1WalBytes(records));

  Options options;
  options.dir = dir.string();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_events = 0;
  for (int restart = 0; restart < 2; ++restart) {
    Counters counters;
    auto manager = Manager::Start(options, &counters);
    ASSERT_TRUE(manager.ok());
    service::ServiceMetrics metrics;
    service::SessionManager sessions(4, &metrics, manager->get());
    auto recovered = sessions.RecoverAll(service::SessionOptions{},
                                         /*verify=*/true);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(*recovered, 1u) << "restart " << restart;
    auto session = sessions.Find(11);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const service::SessionVerdict verdict = (*session)->Verdict();
    EXPECT_EQ(verdict.events_accepted + verdict.events_rejected,
              events.size());
    EXPECT_EQ(verdict.certifiable, BatchVerdict(events))
        << "restart " << restart;

    EXPECT_EQ(ReadBytes(wal_path).substr(0, 8), "comptxw2")
        << "restart " << restart;
    auto scan = ReadWalFile(wal_path);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_FALSE(scan->w1);
    EXPECT_TRUE(scan->clean) << scan->damage;
    ASSERT_EQ(scan->records.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      ExpectSameRecord(scan->records[i], records[i], i);
    }
  }
}

TEST(RecoveryTest, ATornComptxw1LogIsCutRewrittenAndAppendable) {
  const fs::path dir = Scratch() / "w1_torn";
  fs::create_directories(dir);
  std::vector<WalRecord> records = CapturedW1Records();
  WalRecord tail = records[1];
  tail.seq = 5;
  records.push_back(tail);
  const std::string wal_path = WalPath(dir.string(), 3);
  const std::string bytes = testing::W1WalBytes(records);
  WriteBytes(wal_path, bytes.substr(0, bytes.size() - 3));

  auto state = ReadSessionDurableState(dir.string(), 3);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_TRUE(state->wal_scan.w1);
  EXPECT_FALSE(state->wal_scan.clean);
  EXPECT_EQ(state->event_seq, 4u);

  Options options;
  options.dir = dir.string();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_events = 0;
  Counters counters;
  auto manager = Manager::Start(options, &counters);
  ASSERT_TRUE(manager.ok());
  auto adopted = (*manager)->AdoptLog(*state, /*resume=*/false);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  ASSERT_TRUE((*adopted)->LogAppend(tail.events).ok());

  // One w2 file: the surviving w1 records re-encoded, then the append.
  auto rescan = ReadWalFile(wal_path);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan->w1);
  EXPECT_TRUE(rescan->clean) << rescan->damage;
  ASSERT_EQ(rescan->records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ExpectSameRecord(rescan->records[i], records[i], i);
  }
}

TEST(RecoveryTest, VerifyRecoveryCatchesMissingEvents) {
  const auto events = GeneratedEvents(4, 707);
  online::Certifier certifier{online::CertifierOptions{}};
  for (const auto& event : events) (void)certifier.Ingest(event);
  EXPECT_TRUE(VerifyRecovery(certifier, events.size()).ok());
  // Claiming more durable events than the certifier absorbed must fail.
  EXPECT_FALSE(VerifyRecovery(certifier, events.size() + 1).ok());
}

}  // namespace
}  // namespace comptx::durability
