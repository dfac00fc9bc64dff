// Per-process identity without a syscall per use, and the per-process
// registry of tally cells (support/tally.hpp).
//
// glibc stopped caching getpid() in 2.25, so every call is a kernel
// entry (about 150 ns on a 4-CPU Xeon KVM guest). The cross-process
// executor stamps the caller's pid on every op and every server pass,
// so it reads the pid from this_process_id() instead: one getpid() the
// first time a process asks, a relaxed load of a process-wide cache
// every time after.
//
// fork() copies the cache into the child, where it names the PARENT.
// A pthread_atfork child handler, registered before the cache is first
// filled, clears it, so the child's first this_process_id() resolves
// its own pid. The same handler resets the other per-process value a
// forked child would otherwise inherit: the tally cell registry
// (this_thread_tally_cell), which it empties and whose cell it takes
// back from the forking thread. The forking thread is the only thread
// in the child, so clearing its thread_local there is enough. A
// segment-resident WaitPoint (support/parking.hpp) picks its telemetry
// cell from the tally cell index plus the pid, so a forked child's
// cell follows its own lease and pid, not its parent's.
//
// The limit: a child started by a raw clone() or by vfork() runs no
// atfork handler and would keep its parent's stamp. Nothing in this
// repository creates processes that way; fork() (and posix_spawn,
// whose child execs a fresh image) are the supported paths.
#pragma once

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>

#include "support/assert.hpp"

namespace scm {
namespace detail {

// 0 = not resolved in this process yet. Pids are never 0.
inline std::atomic<std::uint32_t> cached_process_id{0};

// The tally cell registry: bit i set = tally cell i is leased to a live
// thread of this process. One bit per cell.
inline constexpr std::uint32_t kTallyCells = 64;
inline std::atomic<std::uint64_t> tally_cells_leased{0};

// This thread's tally cell: < kTallyCells its own lease, kTallyCells
// the shared cell (no cell was free, or the thread is exiting),
// kTallyUndrawn not drawn yet.
inline constexpr std::uint32_t kTallyUndrawn = kTallyCells + 1;
inline thread_local std::uint32_t tally_cell = kTallyUndrawn;

// pthread_atfork child handler: runs in the child, on its one thread.
inline void forget_process_identity() noexcept {
  cached_process_id.store(0, std::memory_order_relaxed);
  tally_cells_leased.store(0, std::memory_order_relaxed);
  tally_cell = kTallyUndrawn;
}

// Registers the handler once per process. Every path that fills a
// per-process value calls this first, so a fork that copies a filled
// value always runs the handler that resets it.
inline void hook_fork_child() noexcept {
  static const int hooked =
      ::pthread_atfork(nullptr, nullptr, &forget_process_identity);
  SCM_CHECK_MSG(hooked == 0,
                "pthread_atfork failed: a forked child would keep its "
                "parent's pid and tally cells");
}

[[gnu::noinline]] inline std::uint32_t resolve_process_id() noexcept {
  hook_fork_child();
  const auto pid = static_cast<std::uint32_t>(::getpid());
  cached_process_id.store(pid, std::memory_order_relaxed);
  return pid;
}

}  // namespace detail

// The calling process's pid, resolved once per process (and once more
// in each forked child).
inline std::uint32_t this_process_id() noexcept {
  const std::uint32_t pid =
      detail::cached_process_id.load(std::memory_order_relaxed);
  return pid != 0 ? pid : detail::resolve_process_id();
}

namespace detail {

// Hands this thread's tally cell back to the registry at thread exit.
// Anything the thread counts after that goes to the shared cell. The
// release pairs with the acquire of the next thread to lease the cell,
// so that thread's first load sees every count this one stored.
struct TallyLease {
  TallyLease() = default;
  TallyLease(const TallyLease&) = delete;
  TallyLease& operator=(const TallyLease&) = delete;
  ~TallyLease() {
    const std::uint32_t cell = tally_cell;
    tally_cell = kTallyCells;
    if (cell < kTallyCells) {
      tally_cells_leased.fetch_and(~(std::uint64_t{1} << cell),
                                   std::memory_order_release);
    }
  }
};

// Leases the lowest free cell to this thread, or the shared cell when
// all kTallyCells are leased. Runs once per thread (and once more in a
// forked child).
[[gnu::noinline]] inline std::uint32_t draw_tally_cell() noexcept {
  hook_fork_child();
  // Constructed at the first draw; its destructor runs at thread exit.
  static thread_local TallyLease lease;
  (void)lease;
  std::uint64_t leased = tally_cells_leased.load(std::memory_order_relaxed);
  std::uint32_t cell = kTallyCells;
  while (leased != ~std::uint64_t{0}) {
    const auto free = static_cast<std::uint32_t>(std::countr_one(leased));
    if (tally_cells_leased.compare_exchange_weak(
            leased, leased | (std::uint64_t{1} << free),
            std::memory_order_acquire, std::memory_order_relaxed)) {
      cell = free;
      break;
    }
  }
  tally_cell = cell;
  return cell;
}

// This thread's tally cell (support/tally.hpp): one thread_local load
// after the first call.
inline std::uint32_t this_thread_tally_cell() noexcept {
  const std::uint32_t cell = tally_cell;
  return cell != kTallyUndrawn ? cell : draw_tally_cell();
}

}  // namespace detail
}  // namespace scm
