// Lightweight Status / Result error handling, in the spirit of
// RocksDB's Status: recoverable, user-facing failures are reported as
// values rather than exceptions; programming errors use DAISY_CHECK.
#ifndef DAISY_CORE_STATUS_H_
#define DAISY_CORE_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace daisy {

/// Outcome of a fallible operation. Cheap to copy when OK.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kIOError,
    kFailedPrecondition,
    kInternal,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// The same code with `prefix` prepended to the message (context).
  Status WithPrefix(const std::string& prefix) const {
    return Status(code_, prefix + message_);
  }

  /// Human-readable rendering, e.g. "InvalidArgument: bad schema".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Either a value or an error Status. Minimal StatusOr.
template <typename T>
class Result {
 public:
  Result(T value) : ok_(true), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : ok_(false), status_(std::move(status)) {}  // NOLINT

  bool ok() const { return ok_; }
  const Status& status() const { return status_; }
  T& value() { return value_; }
  const T& value() const { return value_; }
  T&& take() { return std::move(value_); }

 private:
  bool ok_;
  T value_{};
  Status status_;
};

namespace internal {
[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr) {
  std::fprintf(stderr, "DAISY_CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}
}  // namespace internal

// Invariant check for programming errors; active in all build types.
#define DAISY_CHECK(expr)                                   \
  do {                                                      \
    if (!(expr)) {                                          \
      ::daisy::internal::CheckFailed(__FILE__, __LINE__, #expr); \
    }                                                       \
  } while (0)

#define DAISY_RETURN_IF_ERROR(expr)         \
  do {                                      \
    ::daisy::Status _st = (expr);           \
    if (!_st.ok()) return _st;              \
  } while (0)

}  // namespace daisy

#endif  // DAISY_CORE_STATUS_H_
