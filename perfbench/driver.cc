// The repo benchmark's driver: runs one workload for --seconds and prints
// one JSON result line (the last line of stdout).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --serve PATH --run-dir DIR [--source-id ID]
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
// for half of --seconds with spans switched on and off block by block
// (adjacent traced and untraced blocks give the tracing overhead), then
// the layer ledger for the rest, and prints the per-layer metrics; spans go
// to DIR/spans.jsonl.
//
// Before the result line it prints one "perfbench-meta {...}" line of
// diagnostics that are never gated: source id, hardware_concurrency,
// seed, load average at start, the yardstick's median pass time (a fixed
// calibration probe), the share of CPU time the host stole during the
// run, the pinned CPU, raw values, sample counts and the first failure
// descriptions.
//
// Exit status: 0 when every output was correct, 1 otherwise, 2 on usage
// errors.
#include <sched.h>
#include <signal.h>
#include <stdlib.h>

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;  // NOLINT

/// Jiffies the host took from this VM ("steal") and all jiffies, summed
/// over CPUs, from /proc/stat; zeros when it cannot be read.
std::pair<double, double> StealAndTotalJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double steal = 0;
  double total = 0;
  if (in >> cpu && cpu == "cpu") {
    double v = 0;
    for (int field = 0; field < 8 && in >> v; ++field) {
      total += v;
      if (field == 7) steal = v;
    }
  }
  return {steal, total};
}

/// Pins this process, and so every thread and child it starts later, to
/// the last CPU it may run on (CPU 0 takes most device interrupts).  The
/// client, the server's threads and the pool threads then hand work to
/// each other on one CPU instead of waking idle vCPUs through the
/// hypervisor, and the yardstick runs on the CPU that does the work.
/// Returns the CPU, or -1 when the affinity cannot be set.
int PinToLastCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t pin;
    CPU_ZERO(&pin);
    CPU_SET(cpu, &pin);
    return ::sched_setaffinity(0, sizeof pin, &pin) == 0 ? cpu : -1;
  }
  return -1;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out << std::setprecision(12) << v;
  return out.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

int Usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve PATH --run-dir DIR [--source-id ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--serve") {
      config.serve_binary = value;
    } else if (arg == "--run-dir") {
      config.run_dir = value;
    } else if (arg == "--source-id") {
      source_id = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const auto& name : WorkloadNames()) known = known || name == config.workload;
  if (!known || config.seconds <= 0 || config.serve_binary.empty() ||
      config.run_dir.empty()) {
    return Usage();
  }
  ::signal(SIGPIPE, SIG_IGN);
  // Every comptx_serve this run spawns indirectly (the topology runner)
  // sizes its worker pool from this; the direct spawns pin theirs on the
  // command line.
  ::setenv("COMPTX_THREADS", "1", 1);
  ::setenv("COMPTX_LOG_LEVEL", "warn", 1);

  const int cpu = PinToLastCpu();
  double load[1] = {0};
  const double load_avg = ::getloadavg(load, 1) == 1 ? load[0] : -1;
  const auto [steal0, total0] = StealAndTotalJiffies();

  RunResult result;
  SpanLog spans(config.trace);
  Yardstick yard;
  if (!config.trace) {
    result = RunWorkload(config, spans, yard);
    for (const auto& name : EndToEndMetrics()) {
      if (result.metrics.count(name) == 0) result.Fail("no value for " + name);
    }
  } else {
    // Half the run is the workload with spans switched on and off block
    // by block (its blocks' rates give the tracing overhead), the other
    // half the layer ledger.
    RunConfig half = config;
    half.seconds = config.seconds / 2;
    spans.set_alternating(true);
    RunResult run = RunWorkload(half, spans, yard);
    spans.set_alternating(false);
    spans.set_enabled(true);
    result.attempted = run.attempted;
    result.failed = run.failed;
    result.errors = run.errors;
    const auto overhead = run.metrics.find("trace.overhead_pct");
    if (overhead != run.metrics.end()) {
      result.metrics.insert(*overhead);
    } else {
      result.Fail("no value for trace.overhead_pct");
    }
    RunLedger(half, result, spans);
    for (const auto& [name, s] : spans.SelfSeconds()) {
      result.info["self_s." + name] = s;
    }
    spans.WriteJsonl(config.run_dir + "/spans.jsonl");
    result.info["spans"] = static_cast<double>(spans.spans().size());
  }
  const auto [steal1, total1] = StealAndTotalJiffies();
  const double steal_pct =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) * 100 : 0;
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::ostringstream meta;
  meta << "perfbench-meta {\"source_id\":" << JsonString(source_id)
       << ",\"workload\":" << JsonString(config.workload)
       << ",\"seed\":" << config.seed
       << ",\"trace\":" << (config.trace ? 1 : 0)
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"load_avg_1m\":" << JsonNumber(load_avg)
       << ",\"probe_ms\":" << JsonNumber(yard.median_pass_ms())
       << ",\"steal_pct\":" << JsonNumber(steal_pct)
       << ",\"cpu\":" << cpu
       << ",\"info\":{";
  bool first = true;
  for (const auto& [k, v] : result.info) {
    meta << (first ? "" : ",") << JsonString(k) << ":" << JsonNumber(v);
    first = false;
  }
  meta << "},\"errors\":[";
  first = true;
  for (const auto& e : result.errors) {
    meta << (first ? "" : ",") << JsonString(e);
    first = false;
  }
  meta << "]}";
  std::cout << meta.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"metrics\":{";
  first = true;
  for (const auto& [name, m] : result.metrics) {
    out << (first ? "" : ",") << JsonString(name) << ":{\"value\":"
        << JsonNumber(m.value) << ",\"unit\":" << JsonString(m.unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}
