// Process identities and per-process step accounting.
//
// The paper's complexity metrics count *shared-memory steps* (register
// reads/writes and RMW operations). Every platform context carries a
// StepCounters instance that its step accessors bump
// (runtime/context.hpp), so step complexity is measured identically on
// the native and the simulated platform.
#pragma once

#include <cstdint>

namespace scm {

using ProcessId = std::int32_t;
inline constexpr ProcessId kInvalidProcess = -1;

// Consensus-number tags for base objects (Herlihy's hierarchy [14]).
// We use INT32_MAX to stand for "infinity" (compare-and-swap).
inline constexpr int kConsensusNumberRegister = 1;
inline constexpr int kConsensusNumberTas = 2;
inline constexpr int kConsensusNumberFetchAdd = 2;
inline constexpr int kConsensusNumberCas = INT32_MAX;

// The kind of a step. kRead, kWrite and kRmw are the shared-memory
// steps of the cost model, each bumping its StepCounters field. kWake
// is the simulator's grant that resumes a process parked in
// sim::SimContext::await — a scheduling event, not a shared-memory
// step, so it appears in the simulator's step log (schedules see it,
// determinism depends on it) but bumps no StepCounters field.
enum class Access : std::uint8_t { kRead, kWrite, kRmw, kWake };

struct StepCounters {
  std::uint64_t reads = 0;   // atomic register reads
  std::uint64_t writes = 0;  // atomic register writes
  std::uint64_t rmws = 0;    // read-modify-write ops (TAS, CAS, F&A)

  [[nodiscard]] std::uint64_t total() const noexcept {
    return reads + writes + rmws;
  }

  StepCounters& operator+=(const StepCounters& o) noexcept {
    reads += o.reads;
    writes += o.writes;
    rmws += o.rmws;
    return *this;
  }

  StepCounters operator-(const StepCounters& o) const noexcept {
    return {reads - o.reads, writes - o.writes, rmws - o.rmws};
  }

  bool operator==(const StepCounters&) const noexcept = default;
};

}  // namespace scm
