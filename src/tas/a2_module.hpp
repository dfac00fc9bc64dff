// A2 — the wait-free test-and-set module (Algorithm 2, lines 16-19).
//
// Essentially a hardware test-and-set: a participant entering with
// switch value L lost already and commits loser without touching the
// hardware; everyone else performs one RMW on T and commits whatever it
// returns. Never aborts (wait-free), consensus number 2.
#pragma once

#include <optional>

#include "core/constraint.hpp"
#include "core/module.hpp"
#include "history/specs.hpp"
#include "runtime/ids.hpp"
#include "runtime/primitives.hpp"

namespace scm {

class WaitFreeTas {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberTas;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    if (init.has_value() && *init == TasConstraint::kL) {
      return ModuleResult::commit(TasSpec::kLoser);
    }
    const int prev = hardware_.test_and_set(ctx);
    return ModuleResult::commit(prev == 0 ? TasSpec::kWinner
                                          : TasSpec::kLoser);
  }

  [[nodiscard]] int value() const { return hardware_.peek(); }

  // See ObstructionFreeTas::unsafe_reset.
  void unsafe_reset() { hardware_.reset(); }

 private:
  NativeTas hardware_;
};

}  // namespace scm
