#ifndef COMPTX_UTIL_CLI_FLAGS_H_
#define COMPTX_UTIL_CLI_FLAGS_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "util/string_util.h"

namespace comptx {

/// Numeric command-line flags for the tools' and benches' mains.  The
/// value must parse strictly (ParseUint64, ParseDouble) and lie in
/// [min, max]; otherwise the reason goes to stderr and the process exits
/// 2, the usage-error status of every comptx tool.
inline uint64_t UintFlagOrExit(std::string_view flag, std::string_view text,
                               uint64_t min = 0, uint64_t max = UINT64_MAX) {
  StatusOr<uint64_t> value = ParseUint64(flag, text);
  if (value.ok() && *value < min) {
    value = Status::InvalidArgument(StrCat(flag, " must be >= ", min));
  } else if (value.ok() && *value > max) {
    value = Status::InvalidArgument(StrCat(flag, " must be <= ", max));
  }
  if (!value.ok()) {
    std::cerr << value.status().message() << "\n";
    std::exit(2);
  }
  return *value;
}

inline double DoubleFlagOrExit(std::string_view flag, std::string_view text) {
  const StatusOr<double> value = ParseDouble(flag, text);
  if (!value.ok()) {
    std::cerr << value.status().message() << "\n";
    std::exit(2);
  }
  return *value;
}

}  // namespace comptx

#endif  // COMPTX_UTIL_CLI_FLAGS_H_
