// Status: the result of an operation that can fail without a payload.
//
// Follows the RocksDB/Arrow idiom: library functions return Status (or
// StatusOr<T>) instead of throwing exceptions. A default-constructed Status
// is OK and carries no allocation. Both are [[nodiscard]]: a dropped result
// is a silent failure, so the compiler flags it (-Wunused-result).
#ifndef BLOCKPLANE_COMMON_STATUS_H_
#define BLOCKPLANE_COMMON_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace blockplane {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kFailedPrecondition = 4,
  kOutOfRange = 5,
  kUnavailable = 6,
  kTimedOut = 7,
  kCorruption = 8,
  kPermissionDenied = 9,
  kAborted = 10,
  kInternal = 11,
  kNotSupported = 12,
};

/// Returns a human-readable name for a StatusCode ("OK", "NotFound", ...).
std::string_view StatusCodeToString(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message);

  Status(const Status& other);
  Status& operator=(const Status& other);
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status TimedOut(std::string msg) {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  /// The error message; empty for OK statuses.
  std::string_view message() const {
    return rep_ ? std::string_view(rep_->message) : std::string_view();
  }

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsTimedOut() const { return code() == StatusCode::kTimedOut; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsPermissionDenied() const {
    return code() == StatusCode::kPermissionDenied;
  }
  bool IsAborted() const { return code() == StatusCode::kAborted; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsNotSupported() const { return code() == StatusCode::kNotSupported; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code() == b.code() && a.message() == b.message();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<Rep> rep_;  // nullptr means OK
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace blockplane

#endif  // BLOCKPLANE_COMMON_STATUS_H_
