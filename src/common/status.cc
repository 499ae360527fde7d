#include "common/status.h"

namespace hamming {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kKeyError:
      return "KeyError";
    case StatusCode::kIndexError:
      return "IndexError";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kExecutionError:
      return "ExecutionError";
    case StatusCode::kUnknownError:
      return "UnknownError";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "InvalidCode";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code());
  out += ": ";
  out += message();
  return out;
}

}  // namespace hamming
