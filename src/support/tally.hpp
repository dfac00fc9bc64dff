// In-process telemetry counters without a locked RMW per count.
//
// A relaxed fetch_add is a `lock`-prefixed instruction on x86 (about
// 8 ns uncontended on a 4-CPU Xeon KVM guest), which is a large share
// of a read that hits a replica in about 50 ns. A Tally<kFields> keeps
// kFields counters in per-thread cells instead:
//
//   * each live thread of the process leases one of kTallyCells cell
//     indices from a process-wide registry (support/process.hpp), once,
//     on its first count; a thread_local hands the index back at thread
//     exit, and a forked child starts with an empty registry;
//   * a count is a relaxed load plus a relaxed store on the counting
//     thread's own cache line: the cell has one writer, so nothing is
//     lost and nothing is locked;
//   * a thread that finds every index leased counts in one shared cell
//     with fetch_add, so every count stays exact however many threads
//     there are;
//   * a reader sums the cells with relaxed loads. A sum taken while
//     threads count is some value between the counts before and after;
//     once the counting threads are joined it is exact.
//
// A thread that leases a cell an exited thread handed back carries on
// that thread's counts: the registry's release/acquire pair orders the
// old writer's last store before the new writer's first load. Cells
// are indexed by OS thread, not by ctx.id(), so contexts whose ids
// collide never share a writer.
//
// In-process only: the registry is per process, so a counter in a
// shared segment, written by several processes, cannot be a Tally.
// Those keep their fetch_adds (WaitPoint<kShared>, ShmCombining).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "support/cacheline.hpp"
#include "support/process.hpp"

namespace scm {

inline constexpr std::size_t kTallyCells = detail::kTallyCells;

// A count on a counter with one writer at a time (a tally cell's
// thread, a lock holder): a relaxed load and a relaxed store, no RMW.
// Exact only while that holds. Returns the new count.
[[gnu::always_inline]] inline std::uint64_t bump(
    std::atomic<std::uint64_t>& counter, std::uint64_t n) noexcept {
  const std::uint64_t v = counter.load(std::memory_order_relaxed) + n;
  counter.store(v, std::memory_order_relaxed);
  return v;
}

template <std::size_t kFields>
class Tally {
  static_assert(kFields >= 1);

 public:
  using Counts = std::array<std::atomic<std::uint64_t>, kFields>;

  Tally() = default;
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;

  // Adds n to `field` and returns the calling thread's cell's new count
  // of it (the shared cell's, for a thread without a cell of its own).
  // Inlined, and one thread_local load and one compare before the
  // count: a call would cost the counted path more than the count.
  [[gnu::always_inline]] std::uint64_t add(std::size_t field,
                                           std::uint64_t n = 1) noexcept {
    const std::uint32_t c = detail::tally_cell;
    if (c < kTallyCells) [[likely]] {
      return bump(cells_[c].n[field], n);
    }
    return add_slow(field, n);
  }

  // The calling thread's own cell, for a caller that counts several
  // fields per operation through one lookup, or keeps per-thread state
  // beside its counts: nullptr until the thread's first add() leases
  // it a cell, and for a thread without a cell of its own. Only the
  // calling thread writes it, with bump().
  [[gnu::always_inline]] Counts* own() noexcept {
    const std::uint32_t c = detail::tally_cell;
    return c < kTallyCells ? &cells_[c].n : nullptr;
  }

  [[nodiscard]] std::uint64_t sum(std::size_t field) const noexcept {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.n[field].load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  // The first count of a thread, and every count of a thread without a
  // cell of its own.
  [[gnu::noinline]] std::uint64_t add_slow(std::size_t field,
                                           std::uint64_t n) noexcept {
    const std::uint32_t c = detail::this_thread_tally_cell();
    std::atomic<std::uint64_t>& a = cells_[c].n[field];
    if (c < kTallyCells) return bump(a, n);
    return a.fetch_add(n, std::memory_order_relaxed) + n;
  }

  struct alignas(kCacheLineSize) Cell {
    Counts n{};
  };
  // kTallyCells leased cells, then the shared one.
  std::array<Cell, kTallyCells + 1> cells_{};
};

}  // namespace scm
