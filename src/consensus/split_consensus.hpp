// SplitConsensus (Appendix A, Algorithm 3): abortable consensus from a
// splitter and two registers, after Luchangco-Moir-Shavit [18].
//
//  * uses only registers (consensus number 1!);
//  * commits in O(1) steps when there is no interval contention;
//  * may abort under contention, returning the current tentative value
//    (possibly ⊥) as a recovery hint.
//
// The run() wrapper implements Algorithm 3 lines 18-23: a process that
// inherited a value `old` from a previous instance first proposes it
// (init), and only proposes its own value if the instance committed ⊥,
// i.e. if no inherited state fixed the outcome.
#pragma once

#include "consensus/consensus.hpp"
#include "consensus/splitter.hpp"
#include "runtime/registers.hpp"

namespace scm {

class SplitConsensus {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  // Algorithm 3, propose(v), lines 5-17 — with one repair: the paper's
  // pseudocode resets the splitter only on the V-writing commit path
  // (line 12). A decided instance re-read by two uncontended processes
  // in sequence would then leave the splitter closed and abort the
  // second reader, poisoning the surrounding universal construction in
  // a contention-free execution (contradicting Proposition 1). V is
  // immutable once non-⊥, so resetting on the read-commit path as well
  // is safe: any later stopper re-reads the same decided value.
  template <class Ctx>
  ConsensusResult propose(Ctx& ctx, std::int64_t v) {
    if (splitter_.get(ctx) == SplitterVerdict::kStop) {
      const std::int64_t current = value_.read(ctx);
      if (current != kBottom) {
        if (!contended_.read(ctx)) {
          splitter_.reset(ctx);
          return ConsensusResult::commit(current);
        }
        return ConsensusResult::abort_with(current);
      }
      value_.write(ctx, v);
      if (!contended_.read(ctx)) {
        splitter_.reset(ctx);
        return ConsensusResult::commit(v);
      }
      // Contention was flagged while we raced through the splitter.
      return ConsensusResult::abort_with(value_.read(ctx));
    }
    contended_.write(ctx, true);
    return ConsensusResult::abort_with(value_.read(ctx));
  }

  // Algorithm 3, init(old), lines 2-4: propose the inherited value.
  template <class Ctx>
  ConsensusResult init(Ctx& ctx, std::int64_t old) {
    return propose(ctx, old);
  }

  // Algorithm 3, SplitConsensus(old, v), lines 18-23.
  template <class Ctx>
  ConsensusResult run(Ctx& ctx, std::int64_t old, std::int64_t v) {
    const ConsensusResult first = init(ctx, old);
    if (!first.committed()) return ConsensusResult::abort_with(old);
    if (first.value == kBottom) return propose(ctx, v);
    return ConsensusResult::commit(first.value);
  }

  // The decision this instance has fixed (or will fix), ⊥ if none: V is
  // written at most once between commits, and any later commit returns
  // it. Used by the universal construction's abort recovery to read
  // decided cells without proposing.
  template <class Ctx>
  [[nodiscard]] std::int64_t peek_decision(Ctx& ctx) const {
    return value_.read(ctx);
  }

 private:
  Splitter splitter_;
  NativeRegister<std::int64_t> value_{kBottom};
  NativeRegister<bool> contended_{false};
};

}  // namespace scm
