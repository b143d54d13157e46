// A comptx_serve child process under the benchmark's control: spawned
// with pinned thread counts, found through its port file, and always
// reaped — SHUTDOWN first, SIGKILL when that does not finish in time, and
// SIGKILL from the destructor on every other exit path.  The child also
// dies with the driver (PR_SET_PDEATHSIG), so a failed run never leaves a
// server loading the next one.
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "service/client.h"
#include "util/status_or.h"

namespace perfbench {

/// Resource use of a child: CPU from wait4 at reaping, peak RSS from the
/// kernel's high-water mark of the server's own address space (wait4's
/// ru_maxrss would also count the driver's pages the child held between
/// fork and exec).
struct ChildUsage {
  double cpu_s = 0;  // user + system
  double peak_rss_mb = 0;
};

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary` with `--workers 1 --io-threads 1 --handler-threads 1
  /// --port 0` plus `extra_args`, using `dir` for its port file and log,
  /// and waits for the port.
  comptx::Status Start(const std::string& binary, const std::string& dir,
                       const std::vector<std::string>& extra_args);

  comptx::StatusOr<comptx::service::ServiceClient> Dial() const;

  /// Graceful stop: SHUTDOWN over a fresh connection, then wait4 with a
  /// deadline, escalating to SIGKILL.  Returns the child's resource use.
  ChildUsage Stop();

 private:
  ChildUsage Reap(bool kill);

  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
