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
#include "support/assert.hpp"

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

// Structural requirements on a composable module for a given context.
template <class M, class Ctx>
concept ComposableModule =
    requires(M m, Ctx& ctx, const Request& r, std::optional<SwitchValue> v) {
      { m.invoke(ctx, r, v) } -> std::same_as<ModuleResult>;
      { M::kConsensusNumber } -> std::convertible_to<int>;
    };

// ---- the unified composable surface -------------------------------
//
// Two op-entry spellings grew side by side: modules expose
// invoke(ctx, m, init) -> ModuleResult (Section 3's switch plumbing)
// and the universal chains expose perform(ctx, m) -> ChainPerformed
// (Section 4.2's sticky stage switching, where the switch value never
// leaves the chain). Every wrapper (Sharded, Combining, Replicated)
// used to branch on which spelling the wrapped object speaks; the
// Composable concept + the apply() adapter below collapse that: a
// wrapper calls apply() once and composes over EITHER shape. Wrapper
// authors should dispatch through apply() rather than spelling the
// invoke/perform duality out again (both spellings keep working on
// the objects themselves — apply() is an adapter, not a rename).

// Module shape: invoke(ctx, m, init) -> ModuleResult.
template <class M, class Ctx>
concept ModuleShaped =
    requires(M m, Ctx& ctx, const Request& r, std::optional<SwitchValue> v) {
      { m.invoke(ctx, r, v) } -> std::same_as<ModuleResult>;
    };

// Chain shape: perform(ctx, m) -> something with a .response (the
// universal chains return ChainPerformed; anything structurally alike
// qualifies). Chains consume their switch values internally.
template <class M, class Ctx>
concept ChainShaped = requires(M m, Ctx& ctx, const Request& r) {
  { m.perform(ctx, r).response } -> std::convertible_to<Response>;
};

// A composable object speaks at least one of the two shapes.
template <class M, class Ctx>
concept Composable = ModuleShaped<M, Ctx> || ChainShaped<M, Ctx>;

// The uniform entry point: one call, either shape. Module-shaped
// objects get the full switch plumbing; chain-shaped objects commit
// their response (a chain's last stage never leaks an abort, and its
// initialization travels inside the chain — passing an external init
// to a chain is a composition error, checked here).
template <class M, class Ctx>
  requires Composable<M, Ctx>
ModuleResult apply(M& obj, Ctx& ctx, const Request& m,
                   std::optional<SwitchValue> init = std::nullopt) {
  if constexpr (ModuleShaped<M, Ctx>) {
    return obj.invoke(ctx, m, init);
  } else {
    SCM_CHECK_MSG(!init.has_value(),
                  "chain-shaped objects consume switch values internally; "
                  "an external init has no meaning here");
    return ModuleResult::commit(obj.perform(ctx, m).response);
  }
}

// ---- read-only op classification ----------------------------------
//
// Nothing in Request distinguishes reads from writes — the op code is
// spec-defined. Layers that want to serve reads differently (the
// caching combinator of core/caching.hpp) need the spec to say which
// op codes are read-only: ReadOnlyOps<kOps...> is that declaration.
// A read-only op must not change the object's state; serving it from
// a replica snapshot is then semantically invisible.
template <std::int64_t... kOps>
struct ReadOnlyOps {
  [[nodiscard]] static constexpr bool is_read_only(
      std::int64_t op) noexcept {
    return ((op == kOps) || ...);
  }
  [[nodiscard]] static constexpr bool is_read_only(
      const Request& m) noexcept {
    return is_read_only(m.op);
  }
};

// A classifier answers "is this op code read-only?" — structurally,
// so specs can hand-roll their own instead of using ReadOnlyOps.
template <class C>
concept ReadOnlyClassifier = requires(std::int64_t op, const Request& m) {
  { C::is_read_only(op) } -> std::convertible_to<bool>;
  { C::is_read_only(m) } -> std::convertible_to<bool>;
};

static_assert(ReadOnlyClassifier<ReadOnlyOps<1>>);

}  // namespace scm
