// The third rung of every wait loop: futex parking.
//
// The spin → pause → yield ladder (support/backoff.hpp) keeps short
// and medium waits cheap, but once it saturates the waiter still burns
// a timeslice per yield — which is exactly where oversubscribed runs
// (threads > cores, the CI regime) and cross-process waits on a
// descheduled server lose their CPU time. WaitPoint adds the classic
// CAS-fast-path + sys_futex-slow-path pattern on top:
//
//   rung 1  spin/pause   — spin_backoff's flat ladder: 8 bare
//                          re-reads, then 255 steps of one pause, the
//                          predicate re-checked after every step
//   rung 2  yield        — ladder saturated, hand over the timeslice
//   rung 3  park         — FUTEX_WAIT on a 32-bit word; the kernel
//                          runs someone useful until a waker calls
//                          FUTEX_WAKE
//
// The word is an eventcount: bit 0 is the waiters-present flag, bits
// 1..31 a wake epoch. Waiters announce themselves with prepare() (one
// fetch_or), re-check their predicate, then park against the observed
// word — if a wake bumped the epoch in between, FUTEX_WAIT returns
// immediately (EAGAIN), so the announce/re-check/park sequence can
// never lose a wakeup. Wakers call wake_all(): a single relaxed load
// when nobody ever parked — NO atomic RMW, NO syscall, which is what
// keeps the uncontended fast paths of the combining wrappers
// syscall-free (proven by the futex_syscalls == 0 telemetry assert in
// async_test's AsyncSubmit.SoloSubmitWaitMatchesInvokeOnEveryLayer) —
// and one epoch-bumping CAS + FUTEX_WAKE otherwise.
//
// The announce/check handshake is a Dekker pattern (waiter: store
// flag, load predicate; waker: store predicate, load flag), so both
// sides need a full barrier between their store and load: the waiter's
// seq_cst fetch_or provides one, and wake_all() issues an explicit
// seq_cst fence before its flag load. That fence is the entire waker-
// side cost on the no-waiter path.
//
// Scope: FutexScope::kPrivate uses FUTEX_*_PRIVATE (cheaper, skips the
// kernel's shared-mapping lookup); FutexScope::kShared omits the
// private flag so the wait queue keys on the PHYSICAL page — required
// for words living in a MAP_SHARED segment, where each process may map
// the word at a different virtual address. WaitPoint is standard-layout,
// trivially destructible, and pointer-free, so a kShared instance is
// address-free and may live directly in a segment (the telemetry
// counters then aggregate across every participating process).
//
// Telemetry placement: the slow-path counters (parks, wakes, ...) sit
// on the word's line, where only parking threads write them. The
// fast-wake count is bumped by EVERY completed wait — in the combining
// wrappers, once per published op — so it lives in per-thread padded
// cells off that line: a waiter writes only its own cell, and the line
// every wake_all() reads stays quiet. A kPrivate point counts them in a
// Tally (support/tally.hpp), a load and a store with no locked RMW. A
// kShared point may live in a segment that several processes write, so
// it keeps kFastWakeCells cells bumped with fetch_add; a forked child
// draws a fresh cell (support/process.hpp) instead of sharing its
// parent's.
//
// Portability: on non-Linux targets — or when SCM_FORCE_NO_FUTEX is
// defined, the testing seam mirroring SCM_FORCE_GENERIC_CPU_PAUSE —
// WaitMode::kYield replaces the syscall with one yield per park():
// exactly the ladder behavior this subsystem replaces, so correctness
// never depends on the kernel primitive. parking_test compiles both
// modes in one translation unit via the kMode template parameter.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>
#include <type_traits>

#include "support/backoff.hpp"
#include "support/cacheline.hpp"
#include "support/process.hpp"
#include "support/tally.hpp"

#if defined(__linux__) && !defined(SCM_FORCE_NO_FUTEX)
#define SCM_HAS_FUTEX 1
#else
#define SCM_HAS_FUTEX 0
#endif

#if SCM_HAS_FUTEX
#include <linux/futex.h>
#include <sys/syscall.h>
#endif
#if defined(__linux__)
#include <unistd.h>
#endif

namespace scm {

// How a saturated wait loop gives up the CPU: kFutex parks in the
// kernel, kYield stays on the historical yield ladder. The default
// follows the platform; tests instantiate both explicitly.
enum class WaitMode : std::uint8_t { kYield, kFutex };

inline constexpr WaitMode kDefaultWaitMode =
    SCM_HAS_FUTEX ? WaitMode::kFutex : WaitMode::kYield;

// Human-readable mode name, recorded in scm-bench/v1 params so an
// artifact says which slow path its numbers were measured with.
inline constexpr const char* wait_mode_name(WaitMode mode) noexcept {
  return mode == WaitMode::kFutex ? "futex" : "yield";
}

// Whether the futex wait queue keys on the virtual address (private to
// one process) or the physical page (shared across mappings).
enum class FutexScope : std::uint8_t { kPrivate, kShared };

// Park/wake telemetry snapshot. parks counts every descent into rung
// 3; wakes counts wake_all() calls that found a waiter flag set;
// spurious_wakes counts parks that returned with the predicate still
// false (EAGAIN races, unrelated epoch bumps, yield-mode re-checks);
// futex_syscalls counts actual kernel entries — zero on any path that
// never saw a parked waiter; fast_wakes counts waits that completed
// WITHOUT parking (rungs 1-2 sufficed), the denominator that turns
// raw park counts into a contention ratio.
struct ParkStats {
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t spurious_wakes = 0;
  std::uint64_t futex_syscalls = 0;
  std::uint64_t fast_wakes = 0;

  ParkStats& operator+=(const ParkStats& o) noexcept {
    parks += o.parks;
    wakes += o.wakes;
    spurious_wakes += o.spurious_wakes;
    futex_syscalls += o.futex_syscalls;
    fast_wakes += o.fast_wakes;
    return *this;
  }

  // Fraction of waits that escalated to rung 3: parks out of all
  // completed waits (parked + fast). The contention signal the
  // ContentionMonitor and humans both read. Zero-safe: no waits yet
  // means no evidence of contention, so 0.0 — never NaN.
  [[nodiscard]] double park_ratio() const noexcept {
    const double total =
        static_cast<double>(parks) + static_cast<double>(fast_wakes);
    return total == 0.0 ? 0.0 : static_cast<double>(parks) / total;
  }
};

namespace detail {

#if SCM_HAS_FUTEX
// Raw futex entry. The word is passed as the atomic's storage address:
// std::atomic<uint32_t> is layout-compatible with its value type on
// every platform where it is lock-free (static_asserted below).
inline long futex_call(const std::atomic<std::uint32_t>* word, int op,
                       std::uint32_t val) noexcept {
  return ::syscall(SYS_futex, word, op, val, nullptr, nullptr, 0);
}
#endif

}  // namespace detail

// Per-thread fast-wake cells in each WaitPoint<kShared>. Threads beyond
// this many share cells, which costs line sharing but never accuracy:
// each bump is a fetch_add on the cell.
inline constexpr std::size_t kFastWakeCells = 8;

// Yield rungs to climb after the backoff ladder saturates before the
// first park: parks cost two syscalls round-trip plus a likely context
// switch, so waits just past the ladder (a combiner mid-pass) stay in
// user space a little longer. This is the boot-time default; each
// WaitPoint carries a runtime-tunable copy (set_yields_before_park)
// so the adaptive layer can re-rung individual wait sites.
inline constexpr int kYieldsBeforePark = 4;

template <FutexScope kScope = FutexScope::kPrivate,
          WaitMode kMode = kDefaultWaitMode>
class WaitPoint {
  // The kernel compares exactly 4 naturally-aligned bytes; anything
  // else is EINVAL at best and a silent miscompare at worst.
  static_assert(sizeof(std::atomic<std::uint32_t>) == 4 &&
                    alignof(std::atomic<std::uint32_t>) == 4,
                "futex words must be 32-bit, 4-byte-aligned atomics");

 public:
  WaitPoint() = default;
  WaitPoint(const WaitPoint&) = delete;
  WaitPoint& operator=(const WaitPoint&) = delete;

  // Announce intent to park: set the waiters-present flag and return
  // the word to park against. The caller MUST re-check its predicate
  // between prepare() and park() — that re-check, ordered after the
  // seq_cst RMW, is one half of the Dekker handshake with wake_all().
  std::uint32_t prepare() noexcept {
    return word_.fetch_or(1u, std::memory_order_seq_cst) | 1u;
  }

  // Rung 3: sleep until the word moves off `observed` (a waker bumped
  // the epoch) or a spurious kernel wakeup. Callers re-check their
  // predicate afterwards, as with any condition-variable wait.
  void park(std::uint32_t observed) noexcept {
    parks_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (kMode == WaitMode::kFutex) {
#if SCM_HAS_FUTEX
      futex_syscalls_.fetch_add(1, std::memory_order_relaxed);
      constexpr int op =
          kScope == FutexScope::kShared ? FUTEX_WAIT : FUTEX_WAIT_PRIVATE;
      (void)detail::futex_call(&word_, op, observed);
#else
      (void)observed;
      std::this_thread::yield();
#endif
    } else {
      // Portable fallback: the pre-park ladder already saturated, so
      // one yield per park IS the historical long-wait behavior.
      (void)observed;
      std::this_thread::yield();
    }
  }

  // Wake every parked waiter. The no-waiter path — every uncontended
  // fast-path op lands here — is one fence + one relaxed load: no RMW,
  // no syscall, nothing for other cores to contend on.
  void wake_all() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::uint32_t w = word_.load(std::memory_order_relaxed);
    while ((w & 1u) != 0) {
      // Clear the flag and bump the epoch in one step; a concurrent
      // prepare() re-sets the flag and its caller re-checks, so the
      // flag can flicker but a waiter is never stranded.
      if (word_.compare_exchange_weak(w, (w + 2u) & ~1u,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
        wakes_.fetch_add(1, std::memory_order_relaxed);
        if constexpr (kMode == WaitMode::kFutex) {
#if SCM_HAS_FUTEX
          futex_syscalls_.fetch_add(1, std::memory_order_relaxed);
          constexpr int op =
              kScope == FutexScope::kShared ? FUTEX_WAKE : FUTEX_WAKE_PRIVATE;
          (void)detail::futex_call(&word_, op,
                                   std::numeric_limits<std::int32_t>::max());
#endif
        }
        return;
      }
    }
  }

  // Telemetry hook for the wait loop: the predicate was still false
  // after a park returned.
  void note_spurious() noexcept {
    spurious_wakes_.fetch_add(1, std::memory_order_relaxed);
  }

  // Telemetry hook for the wait loop: a wait completed without ever
  // parking — rungs 1-2 were enough. Together with parks this gives
  // ParkStats::park_ratio() its denominator. Bumps the calling
  // thread's own cell, not a line shared with other waiters.
  void note_fast_wake() noexcept {
    if constexpr (kScope == FutexScope::kPrivate) {
      fast_wakes_.add(0);
    } else {
      fast_wakes_[detail::this_thread_cell() % kFastWakeCells].n.fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  // Runtime wait-rung knob: how many yield rungs a waiter climbs after
  // the backoff ladder saturates before its first park. Lowering it
  // under sustained contention parks waiters sooner (handing the
  // timeslice to the combiner); raising it keeps short waits in user
  // space. Relaxed on both sides — the knob is a hint, not a fence.
  void set_yields_before_park(int n) noexcept {
    yields_before_park_.store(n < 0 ? 0 : n, std::memory_order_relaxed);
  }
  [[nodiscard]] int yields_before_park() const noexcept {
    return yields_before_park_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ParkStats stats() const noexcept {
    ParkStats s;
    s.parks = parks_.load(std::memory_order_relaxed);
    s.wakes = wakes_.load(std::memory_order_relaxed);
    s.spurious_wakes = spurious_wakes_.load(std::memory_order_relaxed);
    s.futex_syscalls = futex_syscalls_.load(std::memory_order_relaxed);
    if constexpr (kScope == FutexScope::kPrivate) {
      s.fast_wakes = fast_wakes_.sum(0);
    } else {
      for (const FastWakeCell& c : fast_wakes_) {
        s.fast_wakes += c.n.load(std::memory_order_relaxed);
      }
    }
    return s;
  }

 private:
  // One counter per line; plain struct (not Padded) so WaitPoint stays
  // standard-layout for segment residence.
  struct alignas(kCacheLineSize) FastWakeCell {
    std::atomic<std::uint64_t> n{0};
  };

  alignas(4) std::atomic<std::uint32_t> word_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> wakes_{0};
  std::atomic<std::uint64_t> spurious_wakes_{0};
  std::atomic<std::uint64_t> futex_syscalls_{0};
  std::atomic<std::int32_t> yields_before_park_{kYieldsBeforePark};
  std::conditional_t<kScope == FutexScope::kPrivate, Tally<1>,
                     std::array<FastWakeCell, kFastWakeCells>>
      fast_wakes_{};
};

// The native three-rung wait loop shared by every blocking site
// without a simulator seam (wait_until() routes native contexts here).
// Same caller contract as wait_until: pure predicate, and returning
// only means the predicate HELD at some instant — re-validate with a
// real RMW afterwards.
// The park threshold is read once at entry: a concurrent retune
// applies to the NEXT wait, never mid-climb.
template <class WP, class Pred>
void parked_wait(WP& wp, const Pred& pred) {
  int spins = 0;
  int saturated = 0;
  const int yields_before_park = wp.yields_before_park();
  bool parked = false;
  for (;;) {
    if (pred()) break;
    if (!spin_backoff(spins)) continue;
    if (++saturated < yields_before_park) continue;
    const std::uint32_t token = wp.prepare();
    if (pred()) break;
    wp.park(token);
    parked = true;
    if (pred()) break;
    wp.note_spurious();
  }
  if (!parked) wp.note_fast_wake();
}

}  // namespace scm
