#include "util/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace comptx {

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

StatusOr<std::vector<KeyValue>> ParseKeyValues(std::string_view text,
                                               std::string_view what) {
  std::vector<KeyValue> out;
  for (const std::string& token : StrSplit(text, ' ')) {
    if (token.empty()) continue;
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument(
          StrCat(what, " '", token, "' is not key=value"));
    }
    out.push_back({token.substr(0, eq), token.substr(eq + 1)});
  }
  return out;
}

StatusOr<uint64_t> ParseUint64(std::string_view key, std::string_view value) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string_view::npos) {
    return Status::InvalidArgument(
        StrCat(key, "=", value, " is not an unsigned integer"));
  }
  uint64_t parsed = 0;
  for (const char c : value) {
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (parsed > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument(StrCat(key, "=", value, " overflows"));
    }
    parsed = parsed * 10 + digit;
  }
  return parsed;
}

StatusOr<double> ParseDouble(std::string_view key, std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  const double parsed =
      text.empty() || std::isspace(static_cast<unsigned char>(text[0]))
          ? 0.0
          : std::strtod(text.c_str(), &end);
  if (end == nullptr || end == text.c_str() || *end != '\0' ||
      !std::isfinite(parsed)) {
    return Status::InvalidArgument(StrCat(key, "=", value, " is not a number"));
  }
  return parsed;
}

}  // namespace comptx
