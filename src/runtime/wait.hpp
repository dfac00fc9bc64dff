// The blocking-point seam between platforms.
//
// Every combining-style layer has wait loops ("until my slot turns
// kDone", "until the election gate frees") that used to be raw native
// spins — which made the whole slot protocol invisible to the
// deterministic simulator: a spinning thread never parks, so the
// step-granting scheduler can neither interleave nor terminate it.
// wait_until() is the one place that duality now lives:
//
//   * NativeContext (no await support): spin on the predicate with the
//     shared backoff ladder, then park on the WaitPoint's futex word
//     once the ladder saturates, until a waker's wake_all() resumes it
//     (support/parking.hpp) — spin, then yield, then sleep. The caller
//     re-attempts its RMW only after the predicate turns true, a
//     test-and-test-and-set discipline.
//   * SimContext (kCanAwait): park in SimContext::await. The scheduler
//     excludes the process from the runnable set until the predicate
//     holds, so sim::explore's interleaving tree stays finite and a
//     lost wakeup surfaces as a loud simulated deadlock. The WaitPoint
//     is never touched — the simulator's park already is rung 3, and
//     the interleaving tree must not depend on native wait plumbing
//     (the slot-protocol explore tests pin the schedule counts).
//
// Contract for callers: the predicate must be a pure condition over
// shared state (no side effects, no steps — it may be evaluated by the
// sim controller outside any grant), and wait_until returning only
// means the predicate HELD at some instant — re-validate with a real
// RMW afterwards, as with any condition-variable wakeup.
#pragma once

#include <type_traits>
#include <utility>

#include "support/parking.hpp"

namespace scm {

namespace detail {

// Contexts that can park on a condition mark themselves with
// `static constexpr bool kCanAwait = true` (SimContext); everything
// else (NativeContext) falls back to the native spin. It is the one
// context capability: Combining's submit()/drain() and Adaptive's
// monitor tick key on it too.
template <class Ctx, class = void>
struct context_can_await : std::false_type {};

template <class Ctx>
struct context_can_await<Ctx, std::void_t<decltype(Ctx::kCanAwait)>>
    : std::bool_constant<Ctx::kCanAwait> {};

template <class Ctx>
inline constexpr bool context_can_await_v = context_can_await<Ctx>::value;

}  // namespace detail

// Native contexts escalate spin → yield → park on `wp` once the
// backoff ladder saturates; the waker responsible for the predicate
// must call wp.wake_all() after its state change. Awaitable contexts
// ignore the WaitPoint entirely (see file comment).
template <class Ctx, class Pred, FutexScope kScope>
void wait_until(Ctx& ctx, Pred&& pred, WaitPoint<kScope>& wp) {
  if constexpr (detail::context_can_await_v<Ctx>) {
    (void)wp;
    ctx.await(std::forward<Pred>(pred));
  } else {
    (void)ctx;
    parked_wait(wp, pred);
  }
}

}  // namespace scm
