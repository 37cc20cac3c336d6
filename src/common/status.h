// Minimal Status / Result<T> error-propagation types.
//
// Fallible operations at module boundaries (file I/O, format parsing, config
// validation) return Status or Result<T>; programming errors use PRISM_CHECK.
// Exceptions are not used on hot paths.
#ifndef PRISM_SRC_COMMON_STATUS_H_
#define PRISM_SRC_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "src/common/check.h"

namespace prism {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kInternal,
  kIoError,
  kDeadlineExceeded,
  kDataLoss,   // Stored bytes are corrupt (checksum mismatch, malformed coding).
  kCancelled,  // The caller withdrew the operation before it finished.
};

// Human-readable name for a status code, e.g. for log messages.
const char* StatusCodeName(StatusCode code);

// A success-or-error value. Cheap to copy on the success path (no allocation).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }
  static Status IoError(std::string msg) { return Status(StatusCode::kIoError, std::move(msg)); }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status DataLoss(std::string msg) { return Status(StatusCode::kDataLoss, std::move(msg)); }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Returns "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// Value-or-error. `value()` CHECK-fails if the result holds an error, so call
// sites that cannot handle failure stay terse while still being loud.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : value_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    PRISM_CHECK_MSG(!std::get<Status>(value_).ok(), "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(value_); }

  const T& value() const& {
    PRISM_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(value_);
  }
  T& value() & {
    PRISM_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(value_);
  }
  T&& value() && {
    PRISM_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(std::move(value_));
  }

  Status status() const { return ok() ? Status::Ok() : std::get<Status>(value_); }

 private:
  std::variant<T, Status> value_;
};

}  // namespace prism

#define PRISM_RETURN_IF_ERROR(expr)        \
  do {                                     \
    ::prism::Status _status = (expr);      \
    if (!_status.ok()) {                   \
      return _status;                      \
    }                                      \
  } while (false)

#endif  // PRISM_SRC_COMMON_STATUS_H_
