#ifndef MULTICLUST_COMMON_STATUS_H_
#define MULTICLUST_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace multiclust {

/// Error categories used across the library. Modeled after the
/// Arrow/RocksDB status idiom: the library never throws; every fallible
/// operation reports a `Status` (or a `Result<T>`, see result.h).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,  ///< no named constructor; kept so encoded statuses decode
  kNotFound,
  kFailedPrecondition,
  kComputationError,  ///< numerical failure (no convergence, singular matrix)
  kIoError,
  kUnimplemented,  ///< no named constructor, like kOutOfRange
  kInternal,
  kCancelled,  ///< run aborted cooperatively via a CancelToken
  kAborted,    ///< run terminated mid-flight (e.g. simulated crash); a
               ///< checkpoint, if armed, holds the state to resume from
};

/// Returns a short human-readable name for `code`, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// A success-or-error outcome carrying a code and a message.
///
/// `Status` is cheap to copy in the success case (empty message) and is the
/// uniform error channel of the library: public APIs return `Status` or
/// `Result<T>` instead of throwing.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Named constructors for each error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ComputationError(std::string msg) {
    return Status(StatusCode::kComputationError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Propagates a non-OK status to the caller. Usable in functions returning
/// `Status` or `Result<T>` (Result is implicitly constructible from Status).
#define MC_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::multiclust::Status _st = (expr);           \
    if (!_st.ok()) return _st;                   \
  } while (false)

}  // namespace multiclust

#endif  // MULTICLUST_COMMON_STATUS_H_
