// The Abstract interface (Definition 1, [12, 20]): an abortable
// replicated state machine. Invoke(m, h) commits or aborts the request
// m together with a history; commit histories are totally ordered by
// prefix, abort histories extend every commit history, and composing
// two Abstracts yields an Abstract (Theorem 1). The composition is
// Pipeline (core/pipeline.hpp), the same operator that chains
// modules; the hooks below let it pass a history where a module
// passes a switch value.
#pragma once

#include <concepts>
#include <optional>

#include "core/module.hpp"
#include "history/history.hpp"
#include "history/request.hpp"
#include "support/assert.hpp"

namespace scm {

struct AbstractResult {
  Outcome outcome = Outcome::kCommit;
  Response response = kNoResponse;  // β(history, m) — valid on commit
  History history;                  // commit history or abort history

  [[nodiscard]] bool committed() const noexcept {
    return outcome == Outcome::kCommit;
  }
};

// Structural requirements on an Abstract stage, checked against the
// concrete context type: invoke(ctx, m, init) commits or aborts m with
// a history (init is empty for "no init"), and the static
// kConsensusNumber is the largest consensus number among the base
// objects the stage uses.
template <class S, class Ctx>
concept AbstractStageLike =
    requires(S s, Ctx& ctx, const Request& m, const History& init) {
      { s.invoke(ctx, m, init) } -> std::same_as<AbstractResult>;
      { S::kConsensusNumber } -> std::convertible_to<int>;
    };

// The History overloads of the composition operator's stage hooks
// (core/module.hpp), so a Pipeline of Abstracts is a chain of
// Theorem 1 and converts at the Composable boundary. An Abstract
// chain consumes its switch values internally: the first stage runs
// with no init, and a switch value from outside has no meaning.
template <class S, class Ctx>
  requires AbstractStageLike<S, Ctx>
AbstractResult enter_stage(S& stage, Ctx& ctx, const Request& m,
                           std::optional<SwitchValue> init) {
  SCM_CHECK_MSG(!init.has_value(),
                "an Abstract chain consumes its switch values internally; "
                "an external init has no meaning here");
  return stage.invoke(ctx, m, History{});
}

// An abort's history initializes the next stage.
inline History next_init(const AbstractResult& r) { return r.history; }

// A commit becomes the module surface's commit. A chain of Abstracts
// ends in a stage that never aborts (Proposition 1's wait-free stage),
// so an abort out of its last stage is a composition error.
inline ModuleResult module_result(const AbstractResult& r) {
  SCM_CHECK_MSG(r.committed(), "last stage aborted");
  return ModuleResult::commit(r.response);
}

}  // namespace scm
