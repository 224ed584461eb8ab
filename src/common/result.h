// Result<T>: a Status or a value, in the Arrow idiom.
#pragma once

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace sias {

/// Holds either a value of type T or a non-OK Status.
template <typename T>
class Result {
 public:
  /// Implicit from value: `return 42;`
  Result(T value) : value_(std::move(value)) {}  // NOLINT
  /// Implicit from error status: `return Status::NotFound(...)`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : status_;
  }

  const T& ValueOrDie() const& {
    assert(ok());
    return *value_;
  }
  T& ValueOrDie() & {
    assert(ok());
    return *value_;
  }
  T ValueUnsafe() && { return std::move(*value_); }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace sias
