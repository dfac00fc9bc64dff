// Moir-Anderson / Lamport-style splitter built from two registers.
//
// In any execution, at most one process returns kStop; if a process
// runs alone (no interval contention), it returns kStop. Used by
// SplitConsensus as its contention detector: acquiring the splitter
// certifies "nobody else was here concurrently".
#pragma once

#include "runtime/ids.hpp"
#include "runtime/registers.hpp"

namespace scm {

enum class SplitterVerdict : std::uint8_t { kStop, kRight, kDown };

class Splitter {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  [[nodiscard]] SplitterVerdict get(Ctx& ctx) {
    door_.write(ctx, ctx.id());
    if (closed_.read(ctx)) return SplitterVerdict::kRight;
    closed_.write(ctx, true);
    if (door_.read(ctx) != ctx.id()) return SplitterVerdict::kDown;
    return SplitterVerdict::kStop;
  }

  // Reopens the splitter. Called only by a process that obtained kStop
  // while uncontended (Algorithm 3, line 12); under contention the
  // splitter stays closed, which is what forces the abort path.
  template <class Ctx>
  void reset(Ctx& ctx) {
    closed_.write(ctx, false);
  }

 private:
  NativeRegister<ProcessId> door_{kInvalidProcess};
  NativeRegister<bool> closed_{false};
};

}  // namespace scm
