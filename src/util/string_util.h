#ifndef COMPTX_UTIL_STRING_UTIL_H_
#define COMPTX_UTIL_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status_or.h"

namespace comptx {

/// Joins the elements of `parts` with `sep` using `operator<<`.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) out << sep;
    out << part;
    first = false;
  }
  return out.str();
}

/// Splits `text` on the single character `sep`.  Empty fields are kept;
/// an empty input yields an empty vector.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Returns true iff `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Streams all arguments into one string (a tiny StrCat).
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream out;
  (out << ... << args);
  return out.str();
}

/// One token of a "key=value ..." option string.
struct KeyValue {
  std::string key;
  std::string value;
};

/// Splits a space-separated "key=value ..." option string, in order; runs
/// of spaces are skipped.  A token without '=' or with an empty key is an
/// error whose message starts with `what` (e.g. "OPEN option").  Values
/// are untyped: a value may be any non-space text.
StatusOr<std::vector<KeyValue>> ParseKeyValues(std::string_view text,
                                               std::string_view what);

/// Parses an unsigned decimal strictly: digits only (no sign, blank or
/// prefix), overflow-checked.  `key` names the option in the error.
StatusOr<uint64_t> ParseUint64(std::string_view key, std::string_view value);

/// Parses a finite decimal floating-point number strictly: the whole of
/// `value` must be one number, with no blank before it and no text after
/// it.  `key` names the option in the error.
StatusOr<double> ParseDouble(std::string_view key, std::string_view value);

}  // namespace comptx

#endif  // COMPTX_UTIL_STRING_UTIL_H_
