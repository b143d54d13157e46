#ifndef COMPTX_UTIL_STATUS_H_
#define COMPTX_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace comptx {

/// Canonical error space for all fallible operations in the library.
///
/// The library does not use C++ exceptions; every operation that can fail
/// returns a `Status` (or a `StatusOr<T>`, see status_or.h) describing the
/// outcome.
enum class StatusCode {
  kOk = 0,
  /// The caller supplied an argument that is malformed independent of the
  /// state of the system (e.g., an unknown node id).
  kInvalidArgument = 1,
  /// The operation was rejected because the object is not in a state
  /// required for it (e.g., reducing an unvalidated composite system).
  kFailedPrecondition = 2,
  /// A referenced entity does not exist.
  kNotFound = 3,
  /// An entity that the operation attempted to create already exists.
  kAlreadyExists = 4,
  /// A value fell outside a required range.
  kOutOfRange = 5,
  /// An invariant that should hold by construction was violated; indicates
  /// a bug in the library rather than in its input.
  kInternal = 6,
  /// The requested feature is not implemented.
  kUnimplemented = 7,
  /// A resource limit (time, iterations, memory budget) was exhausted.
  kResourceExhausted = 8,
};

/// Returns the canonical lowercase name of `code` (e.g., "invalid_argument").
const char* StatusCodeToString(StatusCode code);

/// A lightweight success-or-error result, modeled on the status types used
/// by Arrow and RocksDB.  `Status` is cheaply copyable and movable; the OK
/// status carries no allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with `code` and a human-readable `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers, one per error code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  /// True iff this status represents success.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "ok" or "<code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace comptx

/// Propagates a non-OK status to the caller.  Usable only in functions that
/// themselves return `Status` (or a type constructible from it).
#define COMPTX_RETURN_IF_ERROR(expr)                   \
  do {                                                 \
    ::comptx::Status _comptx_status = (expr);          \
    if (!_comptx_status.ok()) return _comptx_status;   \
  } while (false)

#endif  // COMPTX_UTIL_STATUS_H_
