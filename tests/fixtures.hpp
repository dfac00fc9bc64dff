// Module fixtures shared by the composition-layer tests: plumbing-only
// stages (no shared-memory steps), a fetch&inc module, an init echo and
// a gate-holding module.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>

#include "core/module.hpp"
#include "history/request.hpp"
#include "runtime/ids.hpp"
#include "runtime/primitives.hpp"

namespace scm::fixtures {

// Aborts onward with the inherited value plus one.
struct HopModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }
};

// Commits the inherited value.
struct SinkModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    return ModuleResult::commit(init.value_or(0));
  }
};

// Fetch&inc semantics (CounterSpec): commits a unique monotone ticket.
// NativeCounter is context-generic, so the same module runs under the
// simulator with its RMW counted as a step.
struct TicketModule {
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    return ModuleResult::commit(static_cast<Response>(count_.fetch_add(ctx)));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

// Reports the init it was handed through its result, on both result
// paths: an even arg commits the init as the response, an odd arg
// aborts with it as the switch value (kNoInit when uninitialized).
struct InitEcho {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;
  static constexpr SwitchValue kNoInit = -7;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    const SwitchValue seen = init.value_or(kNoInit);
    return m.arg % 2 == 0 ? ModuleResult::commit(seen)
                          : ModuleResult::abort_with(seen);
  }
};

// Holds the gate it runs under for as long as the test says: an op
// with arg kHold reports that it entered, then blocks until `go` is
// set; every other op commits its arg at once.
struct HoldModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;
  static constexpr std::int64_t kHold = -1;

  std::atomic<bool> entered{false};
  std::atomic<bool> go{false};

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    if (m.arg == kHold) {
      entered.store(true, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    return ModuleResult::commit(m.arg);
  }
};

}  // namespace scm::fixtures
