// AbortableBakery (Appendix A, Algorithm 4): abortable consensus from
// timestamped register arrays, the abortable variant of the solo-fast
// consensus of Attiya-Guerraoui-Hendler-Kuznetsov [6].
//
//  * uses only registers (consensus number 1);
//  * commits in O(n) steps when the proposer encounters no *step*
//    contention (a strictly stronger progress guarantee than
//    SplitConsensus's interval-contention condition);
//  * on detecting step contention, poisons the instance (Quit) and
//    aborts with the current decision estimate Dec (possibly ⊥).
//
// Each process owns one slot in the announce array (A) and one in the
// confirm array (B); a proposal is decided once it survives two
// collects with the highest timestamp and no conflicting value.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "consensus/consensus.hpp"
#include "runtime/ids.hpp"
#include "runtime/registers.hpp"

namespace scm {

class AbortableBakery {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  explicit AbortableBakery(int num_processes) : n_(num_processes) {
    SCM_CHECK(num_processes > 0);
    announce_ = std::make_unique<Slot[]>(static_cast<std::size_t>(n_));
    confirm_ = std::make_unique<Slot[]>(static_cast<std::size_t>(n_));
  }

  // Algorithm 4, propose(input_i), lines 4-23.
  template <class Ctx>
  ConsensusResult propose(Ctx& ctx, std::int64_t input) {
    const auto me = static_cast<std::size_t>(ctx.id());
    SCM_CHECK_MSG(ctx.id() >= 0 && ctx.id() < n_,
                  "process id out of range for AbortableBakery");

    // Collect A; derive k_i: the minimal timestamp k such that A holds
    // no value with timestamp > k and no two distinct values with
    // timestamp k.
    std::vector<TsVal> view = collect(ctx, announce_.get());
    std::int64_t k = 0;
    std::int64_t adopted = kBottom;
    derive_timestamp(view, k, adopted);

    std::int64_t estimate;
    if (adopted != kBottom) {
      // Some value already sits at timestamp k_i: adopt it.
      estimate = adopted;
    } else {
      // Otherwise fall back to the freshest confirmed value, then to
      // our own input.
      const std::vector<TsVal> confirmed = collect(ctx, confirm_.get());
      estimate = highest_ts_value(confirmed);
      if (estimate == kBottom) estimate = input;
    }

    announce_[me].reg.write(ctx, TsVal{k, estimate});

    view = collect(ctx, announce_.get());
    if (unchallenged(view, k, estimate)) {
      confirm_[me].reg.write(ctx, TsVal{k, estimate});
      view = collect(ctx, announce_.get());
      if (unchallenged(view, k, estimate)) {
        if (!quit_.read(ctx)) {
          decision_.write(ctx, estimate);
          return ConsensusResult::commit(estimate);
        }
      }
    }
    quit_.write(ctx, true);
    return ConsensusResult::abort_with(decision_.read(ctx));
  }

  // Algorithm 4, init(old), lines 24-26.
  template <class Ctx>
  ConsensusResult init(Ctx& ctx, std::int64_t old) {
    return propose(ctx, old);
  }

  // Algorithm 4, AbortableBakery(old, v), lines 27-32.
  template <class Ctx>
  ConsensusResult run(Ctx& ctx, std::int64_t old, std::int64_t v) {
    const ConsensusResult first = init(ctx, old);
    if (!first.committed()) return ConsensusResult::abort_with(old);
    if (first.value == kBottom) return propose(ctx, v);
    return ConsensusResult::commit(first.value);
  }

  // The committed decision, ⊥ if this instance never committed. Dec is
  // written only on commit paths, so a non-⊥ value is final.
  template <class Ctx>
  [[nodiscard]] std::int64_t peek_decision(Ctx& ctx) const {
    return decision_.read(ctx);
  }

 private:
  struct TsVal {
    std::int64_t ts = -1;  // -1 encodes ⊥ (slot never written)
    std::int64_t val = kBottom;
  };
  struct Slot {
    NativeRegister<TsVal> reg{TsVal{}};
  };

  template <class Ctx>
  std::vector<TsVal> collect(Ctx& ctx, const Slot* slots) const {
    std::vector<TsVal> out;
    out.reserve(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      out.push_back(slots[i].reg.read(ctx));
    }
    return out;
  }

  // k_i and the value to adopt at k_i (kBottom if the slot is free).
  static void derive_timestamp(const std::vector<TsVal>& view, std::int64_t& k,
                               std::int64_t& adopted) {
    std::int64_t max_ts = -1;
    for (const TsVal& tv : view) max_ts = std::max(max_ts, tv.ts);
    if (max_ts < 0) {
      k = 0;
      adopted = kBottom;
      return;
    }
    std::int64_t seen = kBottom;
    bool conflict = false;
    for (const TsVal& tv : view) {
      if (tv.ts != max_ts) continue;
      if (seen == kBottom) {
        seen = tv.val;
      } else if (seen != tv.val) {
        conflict = true;
      }
    }
    if (conflict) {
      k = max_ts + 1;
      adopted = kBottom;
    } else {
      k = max_ts;
      adopted = seen;
    }
  }

  static std::int64_t highest_ts_value(const std::vector<TsVal>& view) {
    std::int64_t best_ts = -1;
    std::int64_t best = kBottom;
    for (const TsVal& tv : view) {
      if (tv.ts > best_ts) {
        best_ts = tv.ts;
        best = tv.val;
      }
    }
    return best;
  }

  // "No timestamps larger than k and no values other than v with
  // timestamp k."
  static bool unchallenged(const std::vector<TsVal>& view, std::int64_t k,
                           std::int64_t v) {
    for (const TsVal& tv : view) {
      if (tv.ts > k) return false;
      if (tv.ts == k && tv.val != v) return false;
    }
    return true;
  }

  int n_;
  std::unique_ptr<Slot[]> announce_;
  std::unique_ptr<Slot[]> confirm_;
  NativeRegister<bool> quit_{false};
  NativeRegister<std::int64_t> decision_{kBottom};
};

}  // namespace scm
