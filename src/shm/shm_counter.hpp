// ShmCounter — the segment-resident fetch&increment counter that
// shm_test's cross-process exact-count cases count with.
//
// Speaks CounterSpec's op vocabulary (kFetchInc/kRead from
// history/specs.hpp) and the ModuleResult surface, so it drops into
// run_batch and under ShmCombining exactly like any in-process
// module. Segment constraints shape the rest: standard layout, one
// atomic word of state, no pointers, trivially destructible. The
// atomic is belt-and-braces — under ShmCombining only the elected
// combiner touches it, but a bare cross-process counter (the fast
// sanity tests, a future uncombined baseline scenario) must also be
// correct, and fetch&add's consensus number is what the wrapper
// reports either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/module.hpp"
#include "history/request.hpp"
#include "history/specs.hpp"
#include "runtime/ids.hpp"
#include "shm/shm_layout.hpp"

namespace scm {

class ShmCounter {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;
  using Op = CounterSpec::Op;

  ShmCounter() = default;
  ShmCounter(const ShmCounter&) = delete;
  ShmCounter& operator=(const ShmCounter&) = delete;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    if (m.op == Op::kRead) {
      return ModuleResult::commit(
          static_cast<Response>(ctx.load(value_, std::memory_order_acquire)));
    }
    return ModuleResult::commit(static_cast<Response>(
        ctx.fetch_add(value_, 1, std::memory_order_acq_rel)));
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_acquire);  // scm-lint: coarse (peek)
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

SCM_ASSERT_ADDRESS_FREE(ShmCounter);

}  // namespace scm
