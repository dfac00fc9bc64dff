// Modules and their composition (Section 3 / Section 5).
//
// A module is an algorithm that can additionally be *initialized* with
// a switch value and may *abort* with a switch value instead of
// committing. Two modules compose by feeding the first module's abort
// switch values into the second module's initialization — exactly the
// structure of Figure 1. A composition is itself a module, mirroring
// Theorem 2 (composition of safely composable modules is safely
// composable), so chains of any length nest. Chains are built with
// Pipeline<Ms...> / make_pipeline (core/pipeline.hpp), the one
// composition operator: it also chains the universal construction's
// Abstracts, whose switch value is a history (Theorem 1), through the
// stage hooks at the end of this file and their History overloads in
// universal/abstract.hpp.
#pragma once

#include <concepts>
#include <optional>
#include <utility>

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
// Pipeline (of modules or of Abstracts), and every wrapper over them
// (Sharded, Combining, Replicated, Adaptive) — speaks one op entry,
// invoke(ctx, m, init) -> ModuleResult.
template <class M, class Ctx>
concept Composable =
    requires(M m, Ctx& ctx, const Request& r, std::optional<SwitchValue> v) {
      { m.invoke(ctx, r, v) } -> std::same_as<ModuleResult>;
    };

// A composable module also declares its consensus number statically.
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

// Stage hooks of the composition operator (core/pipeline.hpp),
// overloaded on what a stage takes and returns. A module needs no
// conversion: it runs with the init it is handed, its abort switch
// value initializes the next stage, and its result — a commit, or the
// last stage's abort, which composes further upstream — is the
// chain's result. universal/abstract.hpp overloads them for Abstract
// stages.
template <class S, class Ctx, class Init>
auto enter_stage(S& stage, Ctx& ctx, const Request& m, Init&& init)
    -> decltype(stage.invoke(ctx, m, std::forward<Init>(init))) {
  return stage.invoke(ctx, m, std::forward<Init>(init));
}
inline std::optional<SwitchValue> next_init(const ModuleResult& r) noexcept {
  return r.switch_value;
}
inline ModuleResult module_result(ModuleResult r) noexcept { return r; }

}  // namespace scm
