// The Abstract interface (Definition 1, [12, 20]): an abortable
// replicated state machine. Invoke(m, h) commits or aborts the request
// m together with a history; commit histories are totally ordered by
// prefix, abort histories extend every commit history, and composing
// two Abstracts yields an Abstract (Theorem 1).
#pragma once

#include <concepts>
#include <cstddef>

#include "core/module.hpp"
#include "history/history.hpp"
#include "history/request.hpp"

namespace scm {

struct AbstractResult {
  Outcome outcome = Outcome::kCommit;
  Response response = kNoResponse;  // β(history, m) — valid on commit
  History history;                  // commit history or abort history

  [[nodiscard]] bool committed() const noexcept {
    return outcome == Outcome::kCommit;
  }
};

// A committed chain operation (StaticAbstractChain::perform): the
// response, the stage that served it (for progress accounting in
// benches and examples) and the commit history.
struct ChainPerformed {
  Response response = kNoResponse;
  std::size_t stage = 0;
  History history;
};

// Structural requirements on an Abstract stage, checked against the
// concrete context type: invoke(ctx, m, init) commits or aborts m with
// a history (init is empty for "no init"), the static kConsensusNumber
// is the largest consensus number among the base objects the stage
// uses, and name() labels the stage in reports.
template <class S, class Ctx>
concept AbstractStageLike =
    requires(S s, Ctx& ctx, const Request& m, const History& init) {
      { s.invoke(ctx, m, init) } -> std::same_as<AbstractResult>;
      { S::kConsensusNumber } -> std::convertible_to<int>;
      { s.name() } -> std::convertible_to<const char*>;
    };

}  // namespace scm
