// Abortable consensus (Section 4.2 / Appendix A).
//
// An abortable consensus instance returns a commit or an abort
// indication together with a value: on commit, every committing process
// obtains the same decision; on abort, the value is a (possibly ⊥)
// recovery hint and agreement is not guaranteed. The instance commits
// whenever its progress predicate NT holds (absence of interval
// contention for SplitConsensus, absence of step contention for
// AbortableBakery, always for CasConsensus).
#pragma once

#include <cstdint>

#include "core/module.hpp"
#include "history/request.hpp"

namespace scm {

// ⊥ for consensus proposal/decision values.
inline constexpr std::int64_t kBottom = INT64_MIN;

struct ConsensusResult {
  Outcome outcome = Outcome::kCommit;
  std::int64_t value = kBottom;

  static ConsensusResult commit(std::int64_t v) {
    return {Outcome::kCommit, v};
  }
  static ConsensusResult abort_with(std::int64_t v) {
    return {Outcome::kAbort, v};
  }

  [[nodiscard]] bool committed() const noexcept {
    return outcome == Outcome::kCommit;
  }
};

}  // namespace scm
