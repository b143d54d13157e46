#ifndef COMPTX_BENCH_GIT_SHA_H_
#define COMPTX_BENCH_GIT_SHA_H_

#include <cstdio>
#include <string>

namespace comptx::bench {

/// The checked-out commit ("-dirty" when the tree has local changes),
/// when run from a git work tree; "unknown" otherwise.  Stamped into the
/// committed BENCH_*.json files.
inline std::string GitSha() {
  std::string sha;
  if (FILE* pipe =
          popen("git describe --always --dirty --abbrev=40 2>/dev/null", "r")) {
    char buf[80] = {};
    if (fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace comptx::bench

#endif  // COMPTX_BENCH_GIT_SHA_H_
