#include "src/common/status.h"

namespace prism {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kCancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace prism
