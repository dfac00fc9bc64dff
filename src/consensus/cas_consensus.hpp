// Wait-free consensus from hardware compare-and-swap: the strong base
// object that the composable universal construction reverts to under
// contention (Proposition 1), and the baseline whose avoidance is the
// point of the speculative constructions.
#pragma once

#include "consensus/consensus.hpp"
#include "runtime/ids.hpp"
#include "runtime/primitives.hpp"

namespace scm {

class CasConsensus {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberCas;

  // Wait-free: always commits, in at most one RMW step.
  template <class Ctx>
  ConsensusResult propose(Ctx& ctx, std::int64_t v) {
    std::int64_t expected = kBottom;
    if (cell_.compare_and_swap(ctx, expected, v)) {
      return ConsensusResult::commit(v);
    }
    return ConsensusResult::commit(expected);
  }

  template <class Ctx>
  ConsensusResult init(Ctx& ctx, std::int64_t old) {
    return propose(ctx, old);
  }

  // Same wrapper shape as the abortable algorithms so the universal
  // construction can swap implementations: propose the inherited value
  // first, then our own if nothing was inherited. When nothing was
  // inherited we skip the init round, keeping the wait-free path at a
  // single RMW (the fence-complexity baseline of E4/E5).
  template <class Ctx>
  ConsensusResult run(Ctx& ctx, std::int64_t old, std::int64_t v) {
    if (old != kBottom) {
      const ConsensusResult first = init(ctx, old);
      if (first.value != kBottom) return first;
    }
    return propose(ctx, v);
  }

  // The committed decision, ⊥ if nobody proposed yet.
  template <class Ctx>
  [[nodiscard]] std::int64_t peek_decision(Ctx& ctx) const {
    return cell_.read(ctx);
  }

 private:
  NativeCas<std::int64_t> cell_{kBottom};
};

}  // namespace scm
