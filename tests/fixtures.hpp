// Module fixtures shared by the composition-layer tests: plumbing-only
// stages (no shared-memory steps) and a fetch&inc module.
#pragma once

#include <cstdint>
#include <optional>

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

}  // namespace scm::fixtures
