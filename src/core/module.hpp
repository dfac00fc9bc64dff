// Modules and their composition (Section 3 / Section 5).
//
// A module is an algorithm that can additionally be *initialized* with
// a switch value and may *abort* with a switch value instead of
// committing. Two modules compose by feeding the first module's abort
// switch values into the second module's initialization — exactly the
// structure of Figure 1. A composition is itself a module, mirroring
// Theorem 2 (composition of safely composable modules is safely
// composable), so chains of any length nest. Chains are built with
// Pipeline<Ms...> / make_pipeline (core/pipeline.hpp).
#pragma once

#include <concepts>
#include <optional>

#include "history/request.hpp"

namespace scm {

enum class Outcome : std::uint8_t { kCommit, kAbort };

struct ModuleResult {
  Outcome outcome = Outcome::kCommit;
  Response response = kNoResponse;  // meaningful iff outcome == kCommit
  SwitchValue switch_value = 0;     // meaningful iff outcome == kAbort

  static ModuleResult commit(Response r) {
    return {Outcome::kCommit, r, 0};
  }
  static ModuleResult abort_with(SwitchValue v) {
    return {Outcome::kAbort, kNoResponse, v};
  }

  [[nodiscard]] bool committed() const noexcept {
    return outcome == Outcome::kCommit;
  }
};

// The composable surface: every composable object — a module, a
// Pipeline, a universal chain, and every wrapper over them (Sharded,
// Combining, Replicated, Adaptive) — speaks one op entry,
// invoke(ctx, m, init) -> ModuleResult.
template <class M, class Ctx>
concept Composable =
    requires(M m, Ctx& ctx, const Request& r, std::optional<SwitchValue> v) {
      { m.invoke(ctx, r, v) } -> std::same_as<ModuleResult>;
    };

// A composable module also declares its consensus number statically
// (a chain reports its consensus number at runtime instead).
template <class M, class Ctx>
concept ComposableModule = Composable<M, Ctx> && requires {
  { M::kConsensusNumber } -> std::convertible_to<int>;
};

// The uniform entry point wrappers call on the object they wrap.
template <class M, class Ctx>
  requires Composable<M, Ctx>
ModuleResult apply(M& obj, Ctx& ctx, const Request& m,
                   std::optional<SwitchValue> init = std::nullopt) {
  return obj.invoke(ctx, m, init);
}

}  // namespace scm
