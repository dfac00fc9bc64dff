// The one-shot speculative test-and-set (Figure 1 / Algorithm 2,
// lines 9-15): A1 composed with A2.
//
// A process first runs the obstruction-free module; if it aborts
// (because of step contention), the switch value initializes the
// wait-free hardware module. The result is a wait-free linearizable
// one-shot TAS (Lemma 7) that
//   * touches only registers — constant count — when uncontended,
//   * uses objects of consensus number at most 2 (checked statically),
//   * performs at most one RMW per operation.
#pragma once

#include <optional>

#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "history/specs.hpp"
#include "tas/a1_module.hpp"
#include "tas/a2_module.hpp"

namespace scm {

// Which module served an operation — Figure 1's arrows, for tests and
// benches that validate the switching behaviour.
enum class TasPath : std::uint8_t { kSpeculative, kHardware };

struct TasOutcome {
  Response value = TasSpec::kLoser;  // kWinner or kLoser
  TasPath path = TasPath::kSpeculative;

  [[nodiscard]] bool won() const noexcept { return value == TasSpec::kWinner; }
};

template <bool SoloFast = false>
class SpeculativeTas {
 public:
  using A1 = ObstructionFreeTas</*CheckAbortedOnEntry=*/!SoloFast>;
  using A2 = WaitFreeTas;
  // The A1∘A2 chain as a pipeline. FastPipeline: the one-shot TAS is
  // the native benches' hot object (pooled by LongLivedTas), so the
  // commit path must touch nothing but the modules' own registers.
  using Chain = FastPipeline<A1&, A2&>;
  static constexpr int kConsensusNumber = Chain::kConsensusNumber;
  static_assert(kConsensusNumber <= 2,
                "the composed TAS must not require consensus (Section 6)");

  // One-shot test-and-set; wait-free.
  template <class Ctx>
  TasOutcome test_and_set(Ctx& ctx, const Request& m) {
    const auto traced = chain_.invoke_traced(ctx, m, std::nullopt);
    SCM_CHECK_MSG(traced.result.committed(), "wait-free module aborted");
    return TasOutcome{traced.result.response, traced.stage == 0
                                                  ? TasPath::kSpeculative
                                                  : TasPath::kHardware};
  }

  // Module interface, so a SpeculativeTas composes further (Theorem 2
  // allows composing compositions; A1 can even be composed with
  // itself).
  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    return chain_.invoke(ctx, m, init);
  }

  // Current logical value (diagnostics): taken if either module shows
  // it taken.
  [[nodiscard]] bool taken() const {
    return a1_.value() == 1 || a2_.value() == 1;
  }

  void unsafe_reset() {
    a1_.unsafe_reset();
    a2_.unsafe_reset();
  }

 private:
  A1 a1_;
  A2 a2_;
  Chain chain_{a1_, a2_};  // references the members above (decl order)
};

// Appendix B: solo-fast composition — a process reverts to hardware
// only when it itself encounters step contention.
using SoloFastTas = SpeculativeTas</*SoloFast=*/true>;

}  // namespace scm
