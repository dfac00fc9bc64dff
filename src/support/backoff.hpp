// Spin-wait pacing shared by every blocking wait loop in the tree: the
// in-process flat-combining wrapper (core/combining.hpp), the ticket
// wait paths, and the cross-process shm gate (shm/shm_combining.hpp).
//
// Two layers:
//   cpu_pause()    — one core-local spin hint (x86 `pause`, ARM
//                    `yield`), telling the pipeline and an SMT sibling
//                    that this is a spin-wait without giving up the
//                    timeslice;
//   spin_backoff() — the flat spin → pause → yield ladder that keeps
//                    short waits free, medium waits polite, and long
//                    waits (oversubscribed runs, cross-process waits on
//                    a descheduled server) yielding.
//
// Portability: targets without a dedicated spin-hint instruction fall
// back to a compiler reordering barrier — the caller's re-read of the
// watched variable is the wait. Defining SCM_FORCE_GENERIC_CPU_PAUSE
// before including this header forces that fallback on any target;
// backoff_test compiles a translation unit both ways so the fallback
// path cannot rot unnoticed on x86-only CI.
#pragma once

#include <thread>

namespace scm {

inline void cpu_pause() noexcept {
#if !defined(SCM_FORCE_GENERIC_CPU_PAUSE) && \
    (defined(__x86_64__) || defined(__i386__))
  __builtin_ia32_pause();
#elif !defined(SCM_FORCE_GENERIC_CPU_PAUSE) && defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // No spin hint on this target (or the fallback is forced for
  // testing): a compiler barrier so the watched re-read is not hoisted
  // out of the caller's loop. The re-read itself is the wait.
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" ::: "memory");
#endif
#endif
}

// Length of the ladder: kBareSpins bare re-reads, then kPauseSteps
// steps of exactly one pause each. The ladder saturates after
// kBareSpins + kPauseSteps calls, having spent kPauseSteps pauses
// (about 6 µs at 25 ns a pause). These are fixed, not knobs:
// backoff_test pins them.
inline constexpr int kBareSpins = 8;
inline constexpr int kPauseSteps = 255;

// Spin-wait pacing: a flat spin → pause → yield ladder. The first
// kBareSpins calls return at once (the watched line is cache-local
// until the writer invalidates it, so the common short wait costs
// nothing extra); the next kPauseSteps calls each issue ONE pause
// hint, keeping the core polite without a syscall; once saturated,
// every call yields the timeslice, which is what makes oversubscribed
// runs (threads > cores, the CI regime) — and cross-process waits on a
// server that lost its timeslice — complete promptly. A fixed spin
// count would burn whole quanta that the thread being waited on needs.
// There is no wakeup to lose: every rung returns to the caller's
// re-read of the watched variable.
//
// Why one pause per step: every caller re-checks only a read of its
// predicate between calls (an RMW is retried only once that read
// turns true; ShmArena's header lock is a test-and-test-and-set for
// this reason), so there is no RMW traffic for longer pause blocks to
// throttle. Re-reading a line this core holds is nearly free, while a
// block of N pauses delays seeing the write by up to N pauses.
//
// Returns whether the ladder is SATURATED — this call yielded the
// timeslice rather than spinning. `spins` stops advancing at the
// saturation rung (yields do not escalate each other), so the return
// value is the only way a caller can detect "this has become a long
// wait" — the signal the parking layer (support/parking.hpp) keys its
// spin → yield → park escalation off.
inline bool spin_backoff(int& spins) noexcept {
  if (spins < kBareSpins + kPauseSteps) {
    if (spins >= kBareSpins) cpu_pause();
    ++spins;
    return false;
  }
  std::this_thread::yield();  // saturated: hand over the timeslice
  return true;
}

}  // namespace scm
