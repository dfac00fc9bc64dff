// A biased lock built on the long-lived speculative TAS (the paper's
// second "independent interest" claim, Section 1: "a simple efficient
// version of a biased lock [9], that uses only registers as long as a
// single process is using it, and reverts to the hardware
// implementation only under step contention, as opposed to interval
// contention for previous implementations [9, 19]").
//
// lock() wins the current TAS round (spinning across rounds if
// necessary); unlock() resets, advancing the round. While one process
// acquires and releases repeatedly with nobody interfering, every
// acquisition is an uncontended A1 pass: a handful of register
// operations and zero RMWs.
#pragma once

#include <cstdint>
#include <memory>

#include "support/cacheline.hpp"
#include "tas/long_lived_tas.hpp"

namespace scm {

template <bool SoloFast = false>
class BiasedLock {
 public:
  static constexpr int kConsensusNumber =
      LongLivedTas<SoloFast>::kConsensusNumber;

  BiasedLock(int num_processes, std::size_t rounds, bool recycle = true)
      : tas_(num_processes, rounds, recycle) {
    seq_ = std::make_unique<Seq[]>(static_cast<std::size_t>(num_processes));
  }

  // Acquires the lock; blocking (a lock cannot be wait-free), but each
  // round's decision is, and the uncontended path costs O(1) register
  // steps.
  template <class Ctx>
  void lock(Ctx& ctx) {
    for (;;) {
      const std::uint64_t round_before = tas_.round_read(ctx);
      if (tas_.test_and_set(ctx, next_request(ctx)).won()) return;
      // Lost this round: wait for the winner to advance it. Every poll
      // is a counted shared-memory step (and a scheduling point in the
      // simulator).
      while (tas_.round_read(ctx) == round_before) {
      }
    }
  }

  // Releases the lock. Caller must hold it (TAS well-formedness).
  template <class Ctx>
  void unlock(Ctx& ctx) { tas_.reset(ctx); }

  [[nodiscard]] std::uint64_t rounds_played() const { return tas_.round(); }

 private:
  struct alignas(kCacheLineSize) Seq {
    std::uint64_t next = 0;
  };

  template <class Ctx>
  Request next_request(Ctx& ctx) {
    auto& mine = seq_[static_cast<std::size_t>(ctx.id())];
    const std::uint64_t id =
        (static_cast<std::uint64_t>(ctx.id()) << 32) | ++mine.next;
    return Request{id, ctx.id(), TasSpec::kTestAndSet, 0};
  }

  LongLivedTas<SoloFast> tas_;
  std::unique_ptr<Seq[]> seq_;
};

}  // namespace scm
