// Black-box CLI tests for the comptx tools (ctest label `cli`): malformed
// input files, empty traces, conflicting flags and malformed numbers must
// exit non-zero with a diagnostic; well-formed runs must exit zero.  The
// binary locations are baked in at configure time via the
// COMPTX_*_BIN compile definitions.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "durability/recovery.h"
#include "durability/wal.h"
#include "util/string_util.h"
#include "workload/trace.h"
#include "workload/workload_spec.h"

#include "wal_w1.h"

namespace comptx {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

std::string ReadAll(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A per-process scratch directory (ctest may run the cases of this
/// binary in parallel as separate processes).
std::filesystem::path Scratch() {
  static const std::filesystem::path dir = [] {
    std::filesystem::path p =
        std::filesystem::path(::testing::TempDir()) /
        StrCat("comptx_cli_", static_cast<unsigned long>(::getpid()));
    std::filesystem::create_directories(p);
    return p;
  }();
  return dir;
}

RunResult RunCli(const std::string& command) {
  static int counter = 0;
  const std::filesystem::path out =
      Scratch() / StrCat("stdout_", counter, ".txt");
  const std::filesystem::path err =
      Scratch() / StrCat("stderr_", counter, ".txt");
  ++counter;
  const std::string full =
      StrCat(command, " >", out.string(), " 2>", err.string());
  const int raw = std::system(full.c_str());
  RunResult result;
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  result.stdout_text = ReadAll(out);
  result.stderr_text = ReadAll(err);
  return result;
}

std::filesystem::path WriteFile(const std::string& name,
                                const std::string& content) {
  const std::filesystem::path path = Scratch() / name;
  std::ofstream out(path);
  out << content;
  return path;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------- certify

TEST(CertifyCliTest, NoArgumentsIsAUsageError) {
  RunResult r = RunCli(COMPTX_CERTIFY_BIN);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "usage")) << r.stderr_text;
}

TEST(CertifyCliTest, MissingFileIsDiagnosed) {
  RunResult r = RunCli(StrCat(COMPTX_CERTIFY_BIN, " ",
                           (Scratch() / "does_not_exist.trace").string()));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "cannot open")) << r.stderr_text;
}

TEST(CertifyCliTest, MalformedTraceIsDiagnosed) {
  const auto path = WriteFile("malformed.trace", "this is not a trace\n");
  RunResult r = RunCli(StrCat(COMPTX_CERTIFY_BIN, " ", path.string()));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "parse error")) << r.stderr_text;
}

TEST(CertifyCliTest, EmptyTraceFileIsDiagnosed) {
  const auto path = WriteFile("empty.trace", "");
  RunResult r = RunCli(StrCat(COMPTX_CERTIFY_BIN, " ", path.string()));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(r.stderr_text.empty());
}

TEST(CertifyCliTest, DemoConflictsWithATraceFile) {
  const auto path = WriteFile("some.trace", "comptx-trace v1\nend\n");
  RunResult r =
      RunCli(StrCat(COMPTX_CERTIFY_BIN, " --demo ", path.string()));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "usage")) << r.stderr_text;
}

TEST(CertifyCliTest, CertifiesAGeneratedTraceWithBatchCheck) {
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kStack;
  spec.execution.conflict_prob = 0.3;
  auto cs = workload::GenerateSystem(spec, 9);
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  auto text = workload::SaveTrace(*cs);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const auto path = WriteFile("generated.trace", *text);
  RunResult r =
      RunCli(StrCat(COMPTX_CERTIFY_BIN, " --check ", path.string()));
  EXPECT_TRUE(r.exit_code == 0 || r.exit_code == 1) << r.stderr_text;
  if (r.exit_code == 0) {
    EXPECT_TRUE(Contains(r.stdout_text, "certifiable")) << r.stdout_text;
  }
  EXPECT_TRUE(Contains(r.stdout_text, "batch agreement")) << r.stdout_text;
}

TEST(CertifyCliTest, LintVerdictMatchesCertifyOnAStackTrace) {
  workload::WorkloadSpec spec;
  spec.topology.kind = workload::TopologyKind::kStack;
  spec.execution.conflict_prob = 0.3;
  auto cs = workload::GenerateSystem(spec, 9);
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  auto text = workload::SaveTrace(*cs);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const auto path = WriteFile("static_stack.trace", *text);
  // Theorem 2 decides stacks, so the analyzer's verdict is exact and the
  // online replay's exit code must follow it.
  RunResult lint =
      RunCli(StrCat(COMPTX_LINT_BIN, " --verdict ", path.string()));
  EXPECT_EQ(lint.exit_code, 0) << lint.stdout_text << lint.stderr_text;
  const bool safe = Contains(lint.stdout_text, "verdict: SAFE");
  const bool unsafe = Contains(lint.stdout_text, "verdict: UNSAFE");
  ASSERT_TRUE(safe != unsafe) << lint.stdout_text;
  RunResult r = RunCli(StrCat(COMPTX_CERTIFY_BIN, " ", path.string()));
  EXPECT_EQ(r.exit_code, safe ? 0 : 1) << r.stdout_text << r.stderr_text;
  // The static pre-pass is gone; its flag is now a usage error.
  RunResult removed =
      RunCli(StrCat(COMPTX_CERTIFY_BIN, " --static ", path.string()));
  EXPECT_EQ(removed.exit_code, 2);
  EXPECT_TRUE(Contains(removed.stderr_text, "usage: comptx_certify"))
      << removed.stderr_text;
}

// ------------------------------------------------------------------- lint

std::string CorpusFile(const char* name) {
  return (std::filesystem::path(COMPTX_LINT_CORPUS_DIR) / name).string();
}

TEST(LintCliTest, NoArgumentsIsAUsageError) {
  RunResult r = RunCli(COMPTX_LINT_BIN);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "usage")) << r.stderr_text;
}

TEST(LintCliTest, MissingFileIsDiagnosed) {
  RunResult r = RunCli(StrCat(COMPTX_LINT_BIN, " ",
                           (Scratch() / "nope.trace").string()));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "cannot open")) << r.stderr_text;
}

TEST(LintCliTest, SeededCorpusFlagsTheDocumentedCodes) {
  // The committed ill-formed specs and the CTX code each must flag with
  // (the contract CI and DESIGN.md document).
  const struct {
    const char* file;
    const char* code;
    int exit_code;
  } cases[] = {
      {"empty_system.trace", "CTX020", 0},  // warning, not an error
      {"undeclared_conflict.trace", "CTX023", 1},
      {"self_conflict.trace", "CTX024", 1},
      {"deep_cycle.trace", "CTX001", 1},
      {"commute_contradiction.json", "CTX027", 1},
      {"dangling_scheduler.json", "CTX022", 1},
      // The ill-formed commutativity-spec corpus, one file per CTX1xx
      // code (DESIGN.md §14).
      {"spec_no_header.spec", "CTX100", 1},
      {"spec_dup_adt.spec", "CTX101", 1},
      {"spec_unknown_class.spec", "CTX102", 1},
      {"spec_contradiction.spec", "CTX103", 1},
      {"spec_incomplete_table.spec", "CTX104", 1},
      {"spec_all_commute.spec", "CTX105", 0},   // warning, not an error
      {"spec_empty_adt.spec", "CTX106", 0},     // warning, not an error
      {"tag_mismatch.trace", "CTX107", 1},
      {"undeclared_sem_conflict.trace", "CTX108", 0},  // warning
  };
  for (const auto& c : cases) {
    RunResult r = RunCli(StrCat(COMPTX_LINT_BIN, " ", CorpusFile(c.file)));
    EXPECT_EQ(r.exit_code, c.exit_code)
        << c.file << ": " << r.stdout_text << r.stderr_text;
    EXPECT_TRUE(Contains(r.stdout_text, c.code))
        << c.file << " should flag " << c.code << ": " << r.stdout_text;
  }
}

TEST(LintCliTest, CleanSpecLintsCleanWithASafeVerdict) {
  RunResult r = RunCli(StrCat(COMPTX_LINT_BIN, " --verdict ",
                           CorpusFile("single_root_single_leaf.trace")));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text << r.stderr_text;
  EXPECT_TRUE(Contains(r.stdout_text, "0 diagnostic(s)")) << r.stdout_text;
  EXPECT_TRUE(Contains(r.stdout_text, "SAFE")) << r.stdout_text;
}

TEST(LintCliTest, JsonOutputCarriesCodesAndErrorFlag) {
  RunResult r = RunCli(StrCat(COMPTX_LINT_BIN, " --json ",
                           CorpusFile("self_conflict.trace"), " ",
                           CorpusFile("commute_contradiction.json")));
  EXPECT_EQ(r.exit_code, 1) << r.stdout_text << r.stderr_text;
  EXPECT_TRUE(Contains(r.stdout_text, "\"CTX024\"")) << r.stdout_text;
  EXPECT_TRUE(Contains(r.stdout_text, "\"CTX027\"")) << r.stdout_text;
  EXPECT_TRUE(Contains(r.stdout_text, "\"errors\": true")) << r.stdout_text;
}

// ----------------------------------------------------------------- shrink

TEST(ShrinkCliTest, UnknownFlagIsAUsageError) {
  RunResult r = RunCli(StrCat(COMPTX_SHRINK_BIN, " --bogus"));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "unknown flag")) << r.stderr_text;
}

TEST(ShrinkCliTest, NonNumericSeedIsDiagnosed) {
  RunResult r = RunCli(StrCat(COMPTX_SHRINK_BIN, " --seed banana"));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "--seed")) << r.stderr_text;
}

TEST(ShrinkCliTest, ZeroTracesIsDiagnosed) {
  RunResult r = RunCli(StrCat(COMPTX_SHRINK_BIN, " --traces 0"));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "--traces")) << r.stderr_text;
}

TEST(ShrinkCliTest, ReplayConflictsWithInjection) {
  RunResult r = RunCli(
      StrCat(COMPTX_SHRINK_BIN, " --replay --inject-bug flip-oracle"));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "cannot be combined")) << r.stderr_text;
}

TEST(ShrinkCliTest, ReplayWithoutFilesIsDiagnosed) {
  RunResult r = RunCli(StrCat(COMPTX_SHRINK_BIN, " --replay"));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(r.stderr_text.empty());
}

TEST(ShrinkCliTest, ReplayOfAMissingFileIsDiagnosed) {
  RunResult r =
      RunCli(StrCat(COMPTX_SHRINK_BIN, " --replay ",
                 (Scratch() / "missing_witness.json").string()));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "cannot open")) << r.stderr_text;
}

TEST(ShrinkCliTest, ReplayOfMalformedJsonIsDiagnosed) {
  const auto path = WriteFile("garbage.json", "definitely not json");
  RunResult r =
      RunCli(StrCat(COMPTX_SHRINK_BIN, " --replay ", path.string()));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(r.stderr_text.empty());
}

TEST(ShrinkCliTest, ReplayOfAnEmptyTraceWitnessIsDiagnosed) {
  const auto path = WriteFile(
      "empty_trace.json",
      "{\"id\": \"empty\", \"check\": \"batch\", \"injected\": \"none\", "
      "\"trace\": []}");
  RunResult r =
      RunCli(StrCat(COMPTX_SHRINK_BIN, " --replay ", path.string()));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "empty trace")) << r.stderr_text;
}

TEST(ShrinkCliTest, CleanCampaignExitsZero) {
  RunResult r = RunCli(StrCat(COMPTX_SHRINK_BIN, " --seed 1 --traces 3"));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text << r.stderr_text;
  EXPECT_TRUE(Contains(r.stdout_text, "zero decider disagreements"))
      << r.stdout_text;
}

// ----------------------------------------------- version/help contract

// Scripts (and the CI smoke jobs) probe tools with --version / --help
// before driving them; every comptx binary must answer both with exit 0,
// a "(comptx) <version>" banner and a usage line, without touching any
// input files.
TEST(VersionHelpCliTest, EveryToolAnswersVersionWithExitZero) {
  const char* bins[] = {COMPTX_CERTIFY_BIN,       COMPTX_LINT_BIN,
                        COMPTX_SHRINK_BIN,        COMPTX_EXPORT_TRACES_BIN,
                        COMPTX_SERVE_BIN,         COMPTX_LOAD_BIN,
                        COMPTX_WALCHECK_BIN};
  for (const char* bin : bins) {
    RunResult r = RunCli(StrCat(bin, " --version"));
    EXPECT_EQ(r.exit_code, 0) << bin << ": " << r.stderr_text;
    EXPECT_TRUE(Contains(r.stdout_text, "(comptx)"))
        << bin << ": " << r.stdout_text;
  }
}

TEST(VersionHelpCliTest, EveryToolAnswersHelpWithExitZero) {
  const char* bins[] = {COMPTX_CERTIFY_BIN,       COMPTX_LINT_BIN,
                        COMPTX_SHRINK_BIN,        COMPTX_EXPORT_TRACES_BIN,
                        COMPTX_SERVE_BIN,         COMPTX_LOAD_BIN,
                        COMPTX_WALCHECK_BIN};
  for (const char* bin : bins) {
    RunResult r = RunCli(StrCat(bin, " --help"));
    EXPECT_EQ(r.exit_code, 0) << bin << ": " << r.stderr_text;
    EXPECT_TRUE(Contains(StrCat(r.stdout_text, r.stderr_text), "usage"))
        << bin << ": " << r.stdout_text << r.stderr_text;
  }
}

TEST(ShrinkCliTest, InjectedCampaignWritesReplayableWitnesses) {
  const std::filesystem::path corpus = Scratch() / "cli_corpus";
  RunResult campaign =
      RunCli(StrCat(COMPTX_SHRINK_BIN,
                 " --seed 7 --traces 6 --inject-bug flip-oracle --quiet"
                 " --out ",
                 corpus.string()));
  EXPECT_EQ(campaign.exit_code, 1)
      << campaign.stdout_text << campaign.stderr_text;
  size_t witnesses = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() == ".json") ++witnesses;
  }
  ASSERT_GT(witnesses, 0u) << campaign.stdout_text;
  RunResult replay = RunCli(StrCat(COMPTX_SHRINK_BIN, " --quiet --replay ",
                                (corpus / "*.json").string()));
  EXPECT_EQ(replay.exit_code, 0)
      << replay.stdout_text << replay.stderr_text;
}

// -------------------------------------------------------------- serve

// Numeric flags parse strictly: junk, a sign, a trailing suffix or an
// out-of-range value is a usage error (exit 2), never a silent default.
// The trailing --help turns a wrongly accepted value into exit 0 instead
// of a daemon that never returns.
TEST(ServeCliTest, MalformedNumericFlagsExitTwo) {
  const char* bad[] = {
      "--port notaport",        "--port 70000",
      "--port -1",              "--max-sessions -1",
      "--max-sessions 0",       "--workers 3x",
      "--workers 0",            "--io-threads ''",
      "--handler-threads +2",   "--queue-capacity 1e3",
      "--batch 0x10",           "--idle-timeout-ms -5",
      "--stats-interval-ms 1.5", "--fsync-interval-ms ten",
      "--snapshot-events 99999999999999999999",
  };
  for (const char* flag : bad) {
    RunResult r = RunCli(StrCat(COMPTX_SERVE_BIN, " ", flag, " --help"));
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.stderr_text;
    EXPECT_FALSE(r.stderr_text.empty()) << flag;
  }
}

// The same contract for the client tools: a bad count or a number with
// trailing text used to read as whatever strtoul/strtod made of it.
TEST(ToolCliTest, MalformedNumericFlagsExitTwo) {
  const std::pair<const char*, const char*> bad[] = {
      {COMPTX_LOAD_BIN, "--port 70000"},
      {COMPTX_LOAD_BIN, "--sessions abc"},
      {COMPTX_LOAD_BIN, "--threads -1"},
      {COMPTX_LOAD_BIN, "--events 10k"},
      {COMPTX_LOAD_BIN, "--batch ''"},
      {COMPTX_LOAD_BIN, "--processes 0"},
      {COMPTX_LOAD_BIN, "--adt-instances 0x4"},
      {COMPTX_LOAD_BIN, "--commit-window abc"},
      {COMPTX_LOAD_BIN, "--seed +1"},
      {COMPTX_LOAD_BIN, "--kill-after 1.5"},
      {COMPTX_LOAD_BIN, "--theta 0.8x"},
      {COMPTX_LOAD_BIN, "--rate fast"},
      {COMPTX_LOAD_BIN, "--rates 100,2x"},
      {COMPTX_TOPOLOGY_BIN, "--roots many"},
      {COMPTX_TOPOLOGY_BIN, "--seed -3"},
      {COMPTX_TOPOLOGY_BIN, "--disorder 0.1.2"},
      {COMPTX_TOPOLOGY_BIN, "--phases 2x"},
      {COMPTX_TOPOLOGY_BIN, "--kill-phase ''"},
      {COMPTX_SHRINK_BIN, "--seed 7q"},
      {COMPTX_SHRINK_BIN, "--traces 3x"},
      {COMPTX_SHRINK_BIN, "--max-shrink-calls -2"},
      {COMPTX_SHRINK_BIN, "--threads 2x"},
      {COMPTX_CERTIFY_BIN, "--threads 2x"},
      {COMPTX_CERTIFY_BIN, "--threads 0"},
  };
  for (const auto& [bin, flag] : bad) {
    RunResult r = RunCli(StrCat(bin, " ", flag, " --help"));
    EXPECT_EQ(r.exit_code, 2) << bin << " " << flag << ": " << r.stderr_text;
    EXPECT_FALSE(r.stderr_text.empty()) << bin << " " << flag;
  }
}

// bench_longsession has no --help, so each bad flag is followed by small
// valid settings: a wrongly accepted value runs a short bench and exits 0
// (or 1) instead of 2.
TEST(ToolCliTest, LongSessionBenchRejectsMalformedCounts) {
  const std::string out = (Scratch() / "longsession.json").string();
  for (const char* flag : {"--window abc", "--events 2e4", "--batch 0",
                           "--events", "--window -1"}) {
    RunResult r = RunCli(StrCat(COMPTX_BENCH_LONGSESSION_BIN, " ", out,
                                " --events 2000 --window 4 --batch 64 ",
                                flag));
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.stderr_text;
    EXPECT_FALSE(r.stderr_text.empty()) << flag;
  }
}

// The argument set the repo benchmark starts the daemon with still
// listens: the port file gets a real port, and SIGTERM drains to exit 0.
TEST(ServeCliTest, StartsWithTheBenchmarkArgumentSet) {
  const std::filesystem::path port_file = Scratch() / "serve_port.txt";
  const std::string p = port_file.string();
  RunResult r = RunCli(StrCat(
      COMPTX_SERVE_BIN,
      " --host 127.0.0.1 --port 0 --port-file ", p,
      " --workers 1 --io-threads 1 --handler-threads 1 & pid=$!;"
      " for i in $(seq 1 200); do [ -s ", p, " ] && break; sleep 0.05; done;"
      " sleep 0.2; kill -TERM $pid; wait $pid"));
  EXPECT_EQ(r.exit_code, 0) << r.stderr_text;
  const std::string port = ReadAll(port_file);
  auto parsed = ParseUint64("port", port.substr(0, port.find('\n')));
  ASSERT_TRUE(parsed.ok()) << port;
  EXPECT_GT(*parsed, 0u);
  EXPECT_LE(*parsed, 65535u);
}

// ----------------------------------------------------------- walcheck

TEST(WalcheckCliTest, NoPathsIsAUsageError) {
  RunResult r = RunCli(COMPTX_WALCHECK_BIN);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "usage")) << r.stderr_text;
}

TEST(WalcheckCliTest, MissingPathIsAnIoError) {
  RunResult r = RunCli(StrCat(COMPTX_WALCHECK_BIN, " ",
                           (Scratch() / "no_such_dir_or_file.wal").string()));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.stderr_text, "no such")) << r.stderr_text;
}

TEST(WalcheckCliTest, VerifyDetectRepairCycleOnARealWal) {
  const std::filesystem::path dir = Scratch() / "walcheck_data";
  std::filesystem::create_directories(dir);
  // Build a real session WAL through the durability API.
  durability::Counters counters;
  const std::string wal = durability::WalPath(dir.string(), 9);
  {
    auto writer = durability::WalWriter::Create(
        wal, durability::FsyncPolicy::kNone, &counters);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    durability::WalRecord open;
    open.type = durability::WalRecordType::kOpen;
    open.options = "epoch_interval=8";
    ASSERT_TRUE((*writer)->Append(open).ok());
    durability::WalRecord append;
    append.type = durability::WalRecordType::kAppend;
    append.seq = 1;
    for (uint32_t i = 0; i < 4; ++i) {
      workload::TraceEvent event;
      event.kind = workload::TraceEventKind::kConflict;
      event.a = i;
      event.b = i + 1;
      append.events.push_back(event);
    }
    ASSERT_TRUE((*writer)->Append(append).ok());
    ASSERT_TRUE((*writer)->SyncNow().ok());
  }

  // Clean WAL: exit 0, summary mentions the record/event counts.
  RunResult clean = RunCli(StrCat(COMPTX_WALCHECK_BIN, " ", dir.string()));
  EXPECT_EQ(clean.exit_code, 0) << clean.stdout_text << clean.stderr_text;
  EXPECT_TRUE(Contains(clean.stdout_text, "clean")) << clean.stdout_text;
  // --dump prints the per-record lines.
  RunResult dump =
      RunCli(StrCat(COMPTX_WALCHECK_BIN, " --dump ", dir.string()));
  EXPECT_EQ(dump.exit_code, 0);
  EXPECT_TRUE(Contains(dump.stdout_text, "lsn=0 OPEN")) << dump.stdout_text;
  EXPECT_TRUE(Contains(dump.stdout_text, "APPEND seq=1 count=4"))
      << dump.stdout_text;

  // Tear the tail: exit 1 and the damage report names the truncation.
  {
    std::ifstream in(wal, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    std::ofstream out(wal, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 3));
  }
  RunResult torn = RunCli(StrCat(COMPTX_WALCHECK_BIN, " ", dir.string()));
  EXPECT_EQ(torn.exit_code, 1) << torn.stdout_text;
  EXPECT_TRUE(Contains(torn.stdout_text, "TORN")) << torn.stdout_text;
  EXPECT_TRUE(Contains(torn.stdout_text, "truncation lsn=1"))
      << torn.stdout_text;

  // --repair truncates in place; the re-check is clean again.
  RunResult repair =
      RunCli(StrCat(COMPTX_WALCHECK_BIN, " --repair ", dir.string()));
  EXPECT_EQ(repair.exit_code, 0) << repair.stdout_text;
  EXPECT_TRUE(Contains(repair.stdout_text, "repaired")) << repair.stdout_text;
  RunResult again = RunCli(StrCat(COMPTX_WALCHECK_BIN, " ", dir.string()));
  EXPECT_EQ(again.exit_code, 0) << again.stdout_text;
  EXPECT_TRUE(Contains(again.stdout_text, "1 record(s)"))
      << again.stdout_text;
}

TEST(WalcheckCliTest, DumpsBothWalFormats) {
  // An old data dir may still hold comptxw1 files next to comptxw2 ones
  // (an evicted session is rewritten only when it is resumed): walcheck
  // reads both, names each file's format, and leaves the w1 file as is.
  const std::filesystem::path dir = Scratch() / "walcheck_formats";
  std::filesystem::create_directories(dir);
  const std::string w1 = durability::WalPath(dir.string(), 1);
  const std::string w1_bytes = testing::HexBytes(testing::kCapturedW1WalHex);
  {
    std::ofstream out(w1, std::ios::binary | std::ios::trunc);
    out.write(w1_bytes.data(), static_cast<std::streamsize>(w1_bytes.size()));
  }
  auto scan = durability::ReadWalFile(w1);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  {
    durability::Counters counters;
    auto writer = durability::WalWriter::Create(
        durability::WalPath(dir.string(), 2), durability::FsyncPolicy::kNone,
        &counters);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const auto& record : scan->records) {
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
  }

  RunResult dump =
      RunCli(StrCat(COMPTX_WALCHECK_BIN, " --dump ", dir.string()));
  EXPECT_EQ(dump.exit_code, 0) << dump.stdout_text << dump.stderr_text;
  EXPECT_TRUE(Contains(dump.stdout_text, "s1.wal: comptxw1, 2 record(s)"))
      << dump.stdout_text;
  EXPECT_TRUE(Contains(dump.stdout_text, "s2.wal: comptxw2, 2 record(s)"))
      << dump.stdout_text;
  // Both files print the same four events.
  for (const char* line : {"schedule S", "root 0 T", "leaf 0 x", "commit 0"}) {
    const std::string text = dump.stdout_text;
    const size_t first = text.find(line);
    ASSERT_NE(first, std::string::npos) << line << "\n" << text;
    EXPECT_NE(text.find(line, first + 1), std::string::npos) << line;
  }
  std::ifstream in(w1, std::ios::binary);
  std::ostringstream after;
  after << in.rdbuf();
  EXPECT_EQ(after.str(), w1_bytes);
}

// ----------------------------------------------------------- topology

// The multi-process distributed drill: a 3-process fork/join driven by
// comptx_topology, with one leaf SIGKILLed mid-run and respawned.  The
// tool exits 0 only if the distributed verdict sequence matches the
// single-process differential and the batch oracle on the merged trace,
// so this one invocation covers ordered delivery, dedup accounting,
// resubscribe-from-LSN recovery, and the cross-node two-phase commit.
TEST(TopologyCliTest, ForkJoinKillDrillConvergesAndMatchesOracle) {
  const std::filesystem::path dir = Scratch() / "topology_drill";
  std::filesystem::create_directories(dir);
  const std::filesystem::path spec = dir / "forkjoin.topo";
  {
    std::ofstream out(spec);
    out << "# comptx-topology v1\n"
           "node root\nnode left\nnode right\n"
           "edge root left\nedge root right\n";
  }
  RunResult r = RunCli(StrCat(
      COMPTX_TOPOLOGY_BIN, " --spec ", spec.string(), " --serve ",
      COMPTX_SERVE_BIN, " --data-dir ", (dir / "run").string(),
      // 9 roots = 3 components round-robined over 2 leaves, so "left"
      // owns components 0 and 2: killing it after phase 0 forces phase
      // 2 to replicate through the respawned process — the barrier
      // cannot pass without a successful resubscribe-from-LSN.
      " --roots 9 --phases 3 --kill left --kill-phase 0"));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text << r.stderr_text;
  EXPECT_TRUE(Contains(r.stdout_text, "\"ok\": true")) << r.stdout_text;
  EXPECT_TRUE(Contains(r.stdout_text, "\"drill\": true")) << r.stdout_text;
  EXPECT_FALSE(Contains(r.stdout_text, "\"resubscribes\": 0,"))
      << r.stdout_text;
}

TEST(TopologyCliTest, BadSpecIsASetupError) {
  const std::filesystem::path dir = Scratch() / "topology_bad";
  std::filesystem::create_directories(dir);
  const std::filesystem::path spec = dir / "bad.topo";
  {
    std::ofstream out(spec);
    out << "# comptx-topology v1\nnode a\nedge a a\n";
  }
  RunResult r = RunCli(StrCat(
      COMPTX_TOPOLOGY_BIN, " --spec ", spec.string(), " --serve ",
      COMPTX_SERVE_BIN, " --data-dir ", (dir / "run").string(),
      " --roots 3"));
  EXPECT_EQ(r.exit_code, 2) << r.stdout_text;
  EXPECT_TRUE(Contains(r.stderr_text, "bad topology spec")) << r.stderr_text;
}

TEST(WalcheckCliTest, StreamCursorRecordsVerifyAndDump) {
  // A distributed node's WAL: appends interleaved with the kStreamCursor
  // records its edge ingestors write (DESIGN.md §15).  walcheck must
  // verify them, summarize the furthest durable cursor per edge, and
  // render them under --dump.
  const std::filesystem::path dir = Scratch() / "walcheck_cursor_data";
  std::filesystem::create_directories(dir);
  durability::Counters counters;
  const std::string wal = durability::WalPath(dir.string(), 3);
  {
    auto writer = durability::WalWriter::Create(
        wal, durability::FsyncPolicy::kNone, &counters);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    durability::WalRecord open;
    open.type = durability::WalRecordType::kOpen;
    open.options = "stream=1";
    ASSERT_TRUE((*writer)->Append(open).ok());
    durability::WalRecord append;
    append.type = durability::WalRecordType::kAppend;
    append.seq = 1;
    workload::TraceEvent event;
    event.kind = workload::TraceEventKind::kConflict;
    event.a = 0;
    event.b = 1;
    append.events.push_back(event);
    ASSERT_TRUE((*writer)->Append(append).ok());
    // Two cursors on edge 7 (the later one supersedes) and one on 9.
    for (const auto& [edge, cursor] :
         {std::pair<uint64_t, uint64_t>{7, 128},
          std::pair<uint64_t, uint64_t>{9, 64},
          std::pair<uint64_t, uint64_t>{7, 256}}) {
      durability::WalRecord record;
      record.type = durability::WalRecordType::kStreamCursor;
      record.seq = 1;
      record.edge = edge;
      record.cursor_seq = cursor;
      record.mapping = "delta";
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
    ASSERT_TRUE((*writer)->SyncNow().ok());
  }

  RunResult clean = RunCli(StrCat(COMPTX_WALCHECK_BIN, " ", dir.string()));
  EXPECT_EQ(clean.exit_code, 0) << clean.stdout_text << clean.stderr_text;
  EXPECT_TRUE(Contains(clean.stdout_text, "3 stream cursor(s) on 2 edge(s)"))
      << clean.stdout_text;
  EXPECT_TRUE(Contains(clean.stdout_text, "edge 7 @256"))
      << clean.stdout_text;
  EXPECT_TRUE(Contains(clean.stdout_text, "edge 9 @64")) << clean.stdout_text;

  RunResult dump =
      RunCli(StrCat(COMPTX_WALCHECK_BIN, " --dump ", dir.string()));
  EXPECT_EQ(dump.exit_code, 0);
  EXPECT_TRUE(Contains(dump.stdout_text,
                       "CURSOR seq=1 edge=7 cursor_seq=128 mapping_bytes=5"))
      << dump.stdout_text;

  // Tear through the last cursor record: damage is detected (exit 1)
  // and repair truncates back to a clean prefix (exit 0).
  {
    std::ifstream in(wal, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    std::ofstream out(wal, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 2));
  }
  RunResult torn = RunCli(StrCat(COMPTX_WALCHECK_BIN, " ", dir.string()));
  EXPECT_EQ(torn.exit_code, 1) << torn.stdout_text;
  EXPECT_TRUE(Contains(torn.stdout_text, "TORN")) << torn.stdout_text;
  RunResult repair =
      RunCli(StrCat(COMPTX_WALCHECK_BIN, " --repair ", dir.string()));
  EXPECT_EQ(repair.exit_code, 0) << repair.stdout_text;
  RunResult again = RunCli(StrCat(COMPTX_WALCHECK_BIN, " ", dir.string()));
  EXPECT_EQ(again.exit_code, 0) << again.stdout_text;
  EXPECT_TRUE(Contains(again.stdout_text, "2 stream cursor(s) on 2 edge(s)"))
      << again.stdout_text;
}

}  // namespace
}  // namespace comptx
