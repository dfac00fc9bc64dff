// The long-lived resettable test-and-set (Algorithm 2).
//
// An array TAS[] of one-shot speculative objects plus a Count register.
// Participants read Count and play in round TAS[Count]; only the
// current winner may reset, which bumps Count — moving every process to
// a fresh one-shot instance and thereby reverting the object to the
// speculative module (Figure 1's back edge). Construction follows
// Afek-Gafni-Tromp-Vitányi's multi-use transformation [1].
//
// Well-formedness (as in [1]): reset() may be called only by the
// process whose preceding test_and_set won, and not concurrently with
// its own test_and_set.
//
// Memory: the paper's array is unbounded. We provide a fixed capacity
// and, optionally, recycling: with recycle=true, round slots are reused
// modulo the capacity, which is safe under the standard epoch
// assumption that no process stays asleep inside round r while the
// winner chain advances `capacity` full rounds past r. Tests use
// recycle=false; the throughput benches use a large recycled pool.
#pragma once

#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "runtime/registers.hpp"
#include "tas/speculative_tas.hpp"

namespace scm {

template <bool SoloFast = false>
class LongLivedTas {
 public:
  using OneShot = SpeculativeTas<SoloFast>;
  static constexpr int kConsensusNumber = OneShot::kConsensusNumber;
  static_assert(kConsensusNumber <= 2);

  LongLivedTas(int num_processes, std::size_t capacity, bool recycle = false)
      : recycle_(recycle), capacity_(capacity) {
    SCM_CHECK(num_processes > 0 && capacity > 0);
    rounds_.reserve(capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
      rounds_.push_back(std::make_unique<OneShot>());
    }
    winner_flag_ = std::make_unique<Padded<bool>[]>(
        static_cast<std::size_t>(num_processes));
  }

  // Algorithm 2, test-and-set()_i.
  template <class Ctx>
  TasOutcome test_and_set(Ctx& ctx, const Request& m) {
    const std::uint64_t round = count_.read(ctx);
    OneShot& tas = slot(round);
    const TasOutcome out = tas.test_and_set(ctx, m);
    if (out.won()) {
      winner_flag_[static_cast<std::size_t>(ctx.id())].value = true;
    }
    return out;
  }

  // Algorithm 2, reset()_i: only the current winner advances the round.
  template <class Ctx>
  void reset(Ctx& ctx) {
    auto& mine = winner_flag_[static_cast<std::size_t>(ctx.id())].value;
    if (!mine) return;
    const std::uint64_t round = count_.read(ctx);
    const std::uint64_t next = round + 1;
    if (recycle_) {
      // Reinitialize the slot `capacity` rounds ahead of its next use;
      // under the epoch assumption no process can still touch it.
      slot(next).unsafe_reset();
    } else {
      SCM_CHECK_MSG(next < capacity_, "LongLivedTas rounds exhausted");
    }
    count_.write(ctx, next);
    mine = false;
  }

  [[nodiscard]] std::uint64_t round() const { return count_.peek(); }

  // Counted shared-memory read of the round register (for callers that
  // poll Count as part of an algorithm, e.g. the biased lock).
  template <class Ctx>
  [[nodiscard]] std::uint64_t round_read(Ctx& ctx) const {
    return count_.read(ctx);
  }

 private:
  OneShot& slot(std::uint64_t round) {
    return *rounds_[recycle_ ? round % capacity_
                             : static_cast<std::size_t>(round)];
  }

  bool recycle_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<OneShot>> rounds_;
  // crtWinner is process-local state in the paper; one padded slot per
  // process (written only by its owner).
  std::unique_ptr<Padded<bool>[]> winner_flag_;
  NativeRegister<std::uint64_t> count_{0};  // Count
};

}  // namespace scm
