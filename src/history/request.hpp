// Requests, responses and switch values (Section 3 of the paper).
//
// An object is a quadruple (Q, s, I, R, Δ). We represent elements of I
// as Request values: a unique identifier (the paper assumes every
// request is unique), the issuing process, an operation code and an
// argument, both interpreted by the sequential specification.
#pragma once

#include <compare>
#include <cstdint>
#include <ostream>

#include "runtime/ids.hpp"

namespace scm {

using Response = std::int64_t;
using SwitchValue = std::int64_t;  // elements of the set V

inline constexpr Response kNoResponse = INT64_MIN;

struct Request {
  std::uint64_t id = 0;  // globally unique
  ProcessId issuer = kInvalidProcess;
  std::int64_t op = 0;   // operation code (spec-defined)
  std::int64_t arg = 0;  // operation argument (spec-defined)

  friend auto operator<=>(const Request&, const Request&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Request& r) {
  return os << "req{#" << r.id << " p" << r.issuer << " op=" << r.op
            << " arg=" << r.arg << "}";
}

// A switch token: a request paired with the switch value it aborted
// with (or was initialized with). Elements of the set T in Section 5.
struct SwitchToken {
  Request request;
  SwitchValue value = 0;

  friend auto operator<=>(const SwitchToken&, const SwitchToken&) = default;
};

}  // namespace scm
