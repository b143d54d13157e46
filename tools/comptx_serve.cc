// Multi-session certification daemon: accepts comptx-serve wire-protocol
// connections (TCP or Unix socket) and certifies many independent event
// streams concurrently — one online::Certifier session per stream behind
// a bounded queue, drained by a worker pool (see service/server.h and
// DESIGN.md §10).
//
// Usage: comptx_serve [--host H] [--port N] [--unix PATH] [--workers N]
//                     [--io-threads N] [--handler-threads N]
//                     [--max-sessions N] [--queue-capacity N] [--batch N]
//                     [--idle-timeout-ms N] [--stats-interval-ms N]
//                     [--port-file PATH] [--data-dir DIR]
//                     [--fsync always|interval|none]
//                     [--fsync-interval-ms N] [--snapshot-events N]
//                     [--verify-recovery]
//
//   The front end is an epoll event loop: --io-threads non-blocking
//   reactor threads own the connections, --handler-threads run the
//   (potentially blocking) request handlers, and --workers drain the
//   certification queues.  Both wire protocols are served on the same
//   port — textual v1 and binary v2 are auto-detected per frame
//   (DESIGN.md §12).
//
//   --port 0 (the default) asks the kernel for an ephemeral port; the
//   chosen port is printed on stdout as "listening on HOST:PORT" and,
//   with --port-file, written to PATH (how the CI smoke job finds the
//   server).  The daemon runs until a SHUTDOWN command or SIGINT/SIGTERM,
//   then drains every session and exits 0.
//
//   --data-dir enables durable sessions (DESIGN.md §11): every session
//   gets a write-ahead log plus periodic snapshots under DIR, sessions
//   found there at startup are recovered, and idle-evicted sessions can
//   be resumed with OPEN resume=<id>.  --fsync picks the group-commit
//   policy (default interval), --snapshot-events the snapshot cadence
//   (0 disables snapshots), and --verify-recovery cross-checks every
//   recovered session against an offline batch replay before serving.
//
//   Every daemon is also a distributed-topology node (DESIGN.md §15): a
//   NodeController answers ATTACH/DETACH/PREPARE/DECIDE, pulls attached
//   children's ORDER_STREAMs into local sessions, and runs the
//   cross-node two-phase commit.  comptx_topology wires fork/join DAGs
//   of these daemons.
//
//   SIGUSR1 dumps the full metrics registry as one JSON line on stdout
//   (the same rendering STATS json=1 returns over the wire).
//
// Exit codes: 0 = clean shutdown, 2 = usage, bind or recovery error.

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "distributed/controller.h"
#include "durability/wal.h"
#include "service/server.h"
#include "util/cli_flags.h"
#include "util/logging.h"
#include "util/version.h"

namespace {

using namespace comptx;  // NOLINT

// SIGINT/SIGTERM land here; the main loop polls it (a handler may only
// touch lock-free state, so it cannot call Shutdown directly).
volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int) { g_signal = 1; }

// SIGUSR1 asks for a metrics dump; the main loop renders it (JSON, one
// line on stdout) outside signal context.
volatile std::sig_atomic_t g_dump_metrics = 0;

void HandleMetricsSignal(int) { g_dump_metrics = 1; }

int Usage(int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: comptx_serve [--host H] [--port N] [--unix PATH]\n"
         "                    [--workers N] [--io-threads N]\n"
         "                    [--handler-threads N] [--max-sessions N]\n"
         "                    [--queue-capacity N] [--batch N]\n"
         "                    [--idle-timeout-ms N] [--stats-interval-ms N]\n"
         "                    [--port-file PATH] [--data-dir DIR]\n"
         "                    [--fsync always|interval|none]\n"
         "                    [--fsync-interval-ms N] [--snapshot-events N]\n"
         "                    [--verify-recovery]\n"
         "\n"
         "Runs the comptx certification service until SHUTDOWN or\n"
         "SIGINT/SIGTERM, then drains every session and exits 0.\n"
         "The front end is an epoll event loop (--io-threads reactors,\n"
         "--handler-threads request handlers) serving both the textual v1\n"
         "and binary v2 wire protocols on one port, auto-detected.\n"
         "--data-dir enables per-session WAL + snapshot durability and\n"
         "crash recovery (OPEN resume=<id> resumes persisted sessions).\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  service::ServerOptions options;
  service::Endpoint endpoint;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // A count or duration: digits only, within [min, max]; junk exits 2.
    constexpr uint64_t kAny = UINT64_MAX;
    const auto number = [&](const char* flag, uint64_t min,
                            uint64_t max) -> uint64_t {
      return UintFlagOrExit(flag, next(flag), min, max);
    };
    if (arg == "--version") {
      PrintToolVersion("comptx_serve");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else if (arg == "--host") {
      endpoint.host = next("--host");
    } else if (arg == "--port") {
      endpoint.port = static_cast<int>(number("--port", 0, 65535));
    } else if (arg == "--unix") {
      endpoint.unix_path = next("--unix");
    } else if (arg == "--workers") {
      options.workers = number("--workers", 1, kAny);
    } else if (arg == "--io-threads") {
      options.io_threads = number("--io-threads", 1, kAny);
    } else if (arg == "--handler-threads") {
      options.handler_threads = number("--handler-threads", 1, kAny);
    } else if (arg == "--max-sessions") {
      options.max_sessions = number("--max-sessions", 1, kAny);
    } else if (arg == "--queue-capacity") {
      options.session.queue_capacity = number("--queue-capacity", 1, kAny);
    } else if (arg == "--batch") {
      options.batch_size = number("--batch", 1, kAny);
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms = number("--idle-timeout-ms", 0, kAny);
    } else if (arg == "--stats-interval-ms") {
      options.stats_interval_ms = number("--stats-interval-ms", 0, kAny);
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--data-dir") {
      options.durability.dir = next("--data-dir");
    } else if (arg == "--fsync") {
      const char* name = next("--fsync");
      auto policy = durability::ParseFsyncPolicy(name);
      if (!policy.ok()) {
        std::cerr << "--fsync: " << policy.status().message() << "\n";
        return 2;
      }
      options.durability.fsync = *policy;
    } else if (arg == "--fsync-interval-ms") {
      options.durability.fsync_interval_ms =
          number("--fsync-interval-ms", 0, kAny);
    } else if (arg == "--snapshot-events") {
      options.durability.snapshot_events =
          number("--snapshot-events", 0, kAny);
    } else if (arg == "--verify-recovery") {
      options.durability.verify_recovery = true;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return Usage(2);
    }
  }

  service::CertificationServer server(options);
  if (!server.InitStatus().ok()) {
    std::cerr << "durability init failed: " << server.InitStatus() << "\n";
    return 2;
  }

  // Distributed topology support (DESIGN.md §15): the controller owns
  // this node's upstream edges and the cross-node commit; injecting its
  // handler keeps the service library free of a dependency on it.  It is
  // wired before Listen so no ATTACH can race the binding.
  distributed::ControllerOptions controller_options;
  controller_options.data_dir = options.durability.dir;
  distributed::NodeController controller(&server, controller_options);
  server.SetDistributedHandler(
      [&controller](const service::Request& request) {
        return controller.Handle(request);
      });

  Status listening = server.Listen(endpoint);
  if (!listening.ok()) {
    std::cerr << "cannot listen on " << endpoint.ToString() << ": "
              << listening << "\n";
    return 2;
  }
  std::cout << "listening on " << endpoint.ToString() << std::endl;
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << endpoint.port << "\n";
    if (!out) {
      std::cerr << "cannot write " << port_file << "\n";
      return 2;
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGUSR1, HandleMetricsSignal);

  // Park until a SHUTDOWN command arrives or a signal does; poll the
  // signal flags at a human-scale interval.
  while (!server.ShuttingDown() && g_signal == 0) {
    if (g_dump_metrics != 0) {
      g_dump_metrics = 0;
      std::cout << server.metrics().RenderJson() << std::endl;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (g_signal != 0) {
    COMPTX_LOG(Info) << "signal received, draining";
  }
  server.Shutdown();
  std::cout << "shut down cleanly" << std::endl;
  return 0;
}
