// A1 — the obstruction-free test-and-set module (Algorithm 1).
//
// Four registers; constant time and space. Each process either reaches
// a winner/loser decision in the absence of interval contention, or
// detects contention and aborts with a switch value:
//   W — the object may not have been won yet;
//   L — the caller has definitely lost.
// Lemma 6: A1 never aborts in the absence of step contention, so the
// composed TAS is obstruction-free on this module alone.
//
// The CheckAbortedOnEntry parameter selects between the base module
// (true: processes abort as soon as *anyone* flagged contention) and
// the solo-fast variant of Appendix B (false: a process reverts to
// hardware only when it *itself* encounters step contention).
#pragma once

#include <optional>

#include "core/constraint.hpp"
#include "core/module.hpp"
#include "history/specs.hpp"
#include "runtime/ids.hpp"

namespace scm {

template <class P, bool CheckAbortedOnEntry = true>
class ObstructionFreeTas {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;
  using Context = typename P::Context;

  // Algorithm 1, A1-test-and-set(val)_i. `init` carries the switch
  // value the module was entered with (composition input), if any.
  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    // Lines 4-6: somebody already aborted this instance.
    //
    // SOUNDNESS REPAIR vs the paper's pseudocode. Algorithm 1 returns
    // (abort, W) here when V = 0, i.e. the late arrival *stays in
    // contention*. That breaks the paper's own Invariant 4 ("no
    // operation that aborts with W may start after an operation commits
    // loser"): a process may commit loser through the doorway checks
    // (lines 9/11) while V is still 0 and the aborted flag is being
    // raised; a process invoked strictly afterwards would then abort W,
    // proceed to the hardware module, and possibly win — yielding a
    // winner that follows a loser in real time, which is not
    // linearizable. (Our Definition-2 checker found the counterexample;
    // see DESIGN.md §"Deviations".) Aborting with L instead is safe:
    // whenever `aborted` is set, some doorway process aborted W (or is
    // crashed/pending), so a winner candidate that invoked early enough
    // always exists, and dropping the latecomer from contention only
    // adds losers behind it.
    if constexpr (CheckAbortedOnEntry) {
      if (aborted_.read(ctx)) {
        return ModuleResult::abort_with(TasConstraint::kL);
      }
    }

    // Line 7: the object is visibly taken, or we entered as a loser.
    if (value_.read(ctx) == 1 ||
        (init.has_value() && *init == TasConstraint::kL)) {
      return ModuleResult::commit(TasSpec::kLoser);
    }

    // Lines 9-12: race through the two doorway registers.
    if (pace_.read(ctx) != kInvalidProcess) {
      return ModuleResult::commit(TasSpec::kLoser);
    }
    pace_.write(ctx, ctx.id());
    if (set_.read(ctx) != kInvalidProcess) {
      return ModuleResult::commit(TasSpec::kLoser);
    }
    set_.write(ctx, ctx.id());

    if (pace_.read(ctx) == ctx.id()) {
      // Lines 13-17: we were alone in the doorway; take the object.
      value_.write(ctx, 1);
      if (!aborted_.read(ctx)) {
        return ModuleResult::commit(TasSpec::kWinner);
      }
      return ModuleResult::abort_with(TasConstraint::kW);
    }

    // Lines 18-23: interval contention detected; flag it and bail.
    aborted_.write(ctx, true);
    if (value_.read(ctx) == 1) {
      return ModuleResult::commit(TasSpec::kLoser);
    }
    return ModuleResult::abort_with(TasConstraint::kW);
  }

  // Post-run/diagnostic accessors (not algorithm steps).
  [[nodiscard]] int value() const { return value_.peek(); }

  // Reinitializes the module outside any measured execution (used only
  // by the recycling pool; see long_lived_tas.hpp for the safety
  // assumption).
  void unsafe_reset() {
    pace_.reset(kInvalidProcess);
    set_.reset(kInvalidProcess);
    aborted_.reset(false);
    value_.reset(0);
  }

 private:
  typename P::template Register<ProcessId> pace_{kInvalidProcess};  // P
  typename P::template Register<ProcessId> set_{kInvalidProcess};   // S
  typename P::template Register<bool> aborted_{false};
  typename P::template Register<int> value_{0};  // V
};

// Appendix B: the solo-fast module — identical, minus the entry check.
template <class P>
using SoloFastTasModule = ObstructionFreeTas<P, false>;

}  // namespace scm
