// StatusOr<T>: either a value of T or a non-OK Status explaining why the
// value is absent. Mirrors arrow::Result / absl::StatusOr.
#ifndef BLOCKPLANE_COMMON_STATUS_OR_H_
#define BLOCKPLANE_COMMON_STATUS_OR_H_

#include <optional>
#include <utility>

#include "common/macros.h"
#include "common/status.h"

namespace blockplane {

template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Constructs from an error status; `status` must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    BP_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }
  /// Constructs from a value.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Access the contained value. Aborts if !ok().
  const T& value() const& {
    BP_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T& value() & {
    BP_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T&& value() && {
    BP_CHECK_MSG(ok(), status_.ToString().c_str());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` when holding an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

// Assigns the value of a StatusOr expression to `lhs`, or returns its error.
#define BP_ASSIGN_OR_RETURN(lhs, expr)                  \
  auto BP_CONCAT_(_bp_sor_, __LINE__) = (expr);         \
  if (!BP_CONCAT_(_bp_sor_, __LINE__).ok())             \
    return BP_CONCAT_(_bp_sor_, __LINE__).status();     \
  lhs = std::move(BP_CONCAT_(_bp_sor_, __LINE__)).value()

#define BP_CONCAT_INNER_(a, b) a##b
#define BP_CONCAT_(a, b) BP_CONCAT_INNER_(a, b)

}  // namespace blockplane

#endif  // BLOCKPLANE_COMMON_STATUS_OR_H_
