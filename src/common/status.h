#ifndef TENCENTREC_COMMON_STATUS_H_
#define TENCENTREC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace tencentrec {

/// Error categories used across the library. Modeled after the RocksDB
/// convention: every fallible public API returns a Status (or a Result<T>)
/// instead of throwing.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kIOError,
  kCorruption,
  kUnavailable,     ///< server/partition temporarily down; retryable
  kResourceExhausted,
  kFailedPrecondition,
  kInternal,
  kTimedOut,
  kAborted,
};

/// Returns a stable human-readable name for a status code ("NotFound", ...).
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value. Cheap to copy in the OK case (no
/// allocation); error statuses carry a message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg = "") {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg = "") {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg = "") {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsTimedOut() const { return code_ == StatusCode::kTimedOut; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. The value accessors assert
/// on misuse (calling value() on an error), matching the library-wide
/// no-exceptions policy.
template <typename T>
class Result {
 public:
  /* implicit */ Result(T value) : value_(std::move(value)) {}
  /* implicit */ Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// The status of a Status or of a Result<T>, for code generic over both
/// (per-item outcomes of the store's batch calls).
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

/// Propagates a non-OK status to the caller. Usable only in functions that
/// themselves return Status.
#define TR_RETURN_IF_ERROR(expr)           \
  do {                                     \
    ::tencentrec::Status _s = (expr);      \
    if (!_s.ok()) return _s;               \
  } while (false)

}  // namespace tencentrec

#endif  // TENCENTREC_COMMON_STATUS_H_
