#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Reap(/*kill=*/true);
}

comptx::Status ServerProcess::Start(const std::string& binary,
                                    const std::string& dir,
                                    const std::vector<std::string>& extra) {
  const std::string port_file = dir + "/port";
  const std::string log_file = dir + "/server.log";
  ::unlink(port_file.c_str());
  std::vector<std::string> args = {binary,          "--host",
                                   "127.0.0.1",     "--port",
                                   "0",             "--port-file",
                                   port_file,       "--workers",
                                   "1",             "--io-threads",
                                   "1",             "--handler-threads",
                                   "1"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return comptx::Status::Internal("fork failed");
  if (pid == 0) {
    // Die with the driver, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  const uint64_t deadline = NowNs() + 15'000'000'000ull;
  while (NowNs() < deadline) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      port_ = port;
      return comptx::Status::OK();
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return comptx::Status::Internal("comptx_serve exited at startup; see " +
                                      log_file);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Reap(/*kill=*/true);
  return comptx::Status::Internal("comptx_serve did not publish its port");
}

comptx::StatusOr<comptx::service::ServiceClient> ServerProcess::Dial() const {
  comptx::service::Endpoint endpoint;
  endpoint.port = port_;
  return comptx::service::ServiceClient::Dial(endpoint,
                                              comptx::service::WireProtocol::kV2);
}

ChildUsage ServerProcess::Stop() {
  if (pid_ <= 0) return {};
  // VmHWM of the exec'd image, read while the server is still alive.
  double peak_rss_mb = 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      peak_rss_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  auto client = Dial();
  if (client.ok()) (void)client->Shutdown();
  ChildUsage usage = Reap(/*kill=*/false);
  usage.peak_rss_mb = peak_rss_mb;
  return usage;
}

ChildUsage ServerProcess::Reap(bool kill) {
  ChildUsage usage;
  if (pid_ <= 0) return usage;
  if (kill) ::kill(pid_, SIGKILL);
  const uint64_t deadline = NowNs() + 20'000'000'000ull;
  rusage ru{};
  for (;;) {
    const pid_t done = ::wait4(pid_, nullptr, kill ? 0 : WNOHANG, &ru);
    if (done == pid_ || done < 0) break;
    if (NowNs() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, nullptr, 0, &ru);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  usage.cpu_s = TimevalSeconds(ru.ru_utime) + TimevalSeconds(ru.ru_stime);
  pid_ = -1;
  return usage;
}

}  // namespace perfbench
