// Arrow/RocksDB-style status object for error handling without exceptions.
//
// All fallible public APIs in hamming-db return either a Status or a
// Result<T> (see result.h). Exceptions are not thrown across library
// boundaries.
#pragma once

#include <ostream>
#include <string>
#include <utility>

namespace hamming {

/// \brief Coarse error taxonomy used across the library.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kKeyError = 2,        // lookup of a non-existent key / tuple id
  kIndexError = 3,      // structural index invariant violated
  kOutOfRange = 4,      // position or length outside valid bounds
  kNotImplemented = 5,
  kIOError = 6,
  kExecutionError = 7,  // runtime failure inside a MapReduce job
  kUnknownError = 8,
  kResourceExhausted = 9,  // admission control rejected the request
};

/// \brief Returns a human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation: either OK or a code plus message.
///
/// Status is cheap to copy in the OK case (single pointer) and carries a
/// heap-allocated message otherwise, mirroring the Arrow design.
///
/// [[nodiscard]]: a dropped Status is a swallowed error, so discarding
/// one is a compile-time warning (and an error under -Werror builds).
/// The rare deliberate drop must say so: (void)expr plus a comment.
class [[nodiscard]] Status {
 public:
  /// Creates an OK status.
  Status() noexcept : state_(nullptr) {}
  ~Status() { delete state_; }

  Status(StatusCode code, std::string msg)
      : state_(new State{code, std::move(msg)}) {}

  Status(const Status& other)
      : state_(other.state_ ? new State(*other.state_) : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      delete state_;
      state_ = other.state_ ? new State(*other.state_) : nullptr;
    }
    return *this;
  }
  Status(Status&& other) noexcept : state_(other.state_) {
    other.state_ = nullptr;
  }
  Status& operator=(Status&& other) noexcept {
    std::swap(state_, other.state_);
    return *this;
  }

  /// \brief Factory helpers, one per StatusCode.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }
  static Status IndexError(std::string msg) {
    return Status(StatusCode::kIndexError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status UnknownError(std::string msg) {
    return Status(StatusCode::kUnknownError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const {
    return state_ ? state_->code : StatusCode::kOk;
  }
  const std::string& message() const {
    static const std::string kEmpty;
    return state_ ? state_->msg : kEmpty;
  }

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsKeyError() const { return code() == StatusCode::kKeyError; }
  bool IsIndexError() const { return code() == StatusCode::kIndexError; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsNotImplemented() const {
    return code() == StatusCode::kNotImplemented;
  }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsExecutionError() const {
    return code() == StatusCode::kExecutionError;
  }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  State* state_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& st) {
  return os << st.ToString();
}

/// \brief Propagates a non-OK status to the caller.
#define HAMMING_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::hamming::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace hamming
