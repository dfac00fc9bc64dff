// Tests for the futex parking layer (support/parking.hpp) — rung 3 of
// the wait ladder:
//
//  * both WaitModes compile and run in ONE translation unit (kMode is
//    a template parameter, unlike the macro-only forced-generic-pause
//    seam), so the portable yield fallback cannot rot on Linux CI;
//  * the eventcount protocol never loses a wakeup: a waker that runs
//    between prepare() and park() bumps the epoch, so the park returns
//    immediately instead of sleeping forever — stressed across many
//    racing rounds in both modes;
//  * telemetry: a wait that outlives the spin/yield ladder records
//    parks > 0; an already-satisfied wait records one fast wake and
//    zero futex syscalls (the fast-path purity half of the combining
//    wrappers' contract); park_ratio() is NaN-free and moves with the
//    park/fast-wake mix; the fast-wake tally stays exact when more
//    threads than per-thread cells share them; the rung-3 entry
//    threshold is a runtime knob; wake_all() against no waiter is free;
//  * wait_until()'s WaitPoint overload routes native contexts through
//    parked_wait (sim contexts keep their ctx.await path — explorer
//    parity is pinned by slot_protocol_explore_test's unchanged leaf
//    counts);
//  * a WaitPoint<FutexScope::kShared> living inside a shared segment
//    wakes a waiter in a DIFFERENT process that reaches it through its
//    own mapping at its own address (the wait queue keys on the
//    physical page, not the mapping address);
//  * SIGKILLing a client parked inside ShmCombining leaves the
//    combiner fully serviceable: the op executes, reclaim_dead sweeps
//    the corpse's slot, and the parked waiter had actually parked.
//
// fork() under ThreadSanitizer is unreliable, so this suite stays
// unlabeled (like shm_test); the pure in-process WaitPoint tests are
// TSan-covered indirectly via combining_test/async_test, which now
// drive every wait through parked_wait.
#include "support/parking.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/wait.hpp"

namespace scm {
namespace {

using clock_type = std::chrono::steady_clock;

// Segment-resident instances must be address-free and survive being
// mapped at different base addresses with no destructor run.
static_assert(std::is_standard_layout_v<WaitPoint<FutexScope::kShared>>);
static_assert(
    std::is_trivially_destructible_v<WaitPoint<FutexScope::kShared>>);

// The two modes this TU exercises side by side. kPrivate scope: these
// waiters live in one process.
using FutexPoint = WaitPoint<FutexScope::kPrivate, WaitMode::kFutex>;
using YieldPoint = WaitPoint<FutexScope::kPrivate, WaitMode::kYield>;

// Runs one wait on `wp` from a second thread and releases it only once
// it has parked, polling under a 10 s deadline: a fixed sleep can end
// before a slow (sanitized, oversubscribed) waiter climbs the ladder.
// Returns how many times the waiter checked its predicate before its
// first park, a count the ladder fixes.
template <class WP>
std::uint64_t checks_before_park(WP& wp) {
  const std::uint64_t parks_before = wp.stats().parks;
  std::atomic<bool> flag{false};
  std::atomic<std::uint64_t> checks{0};
  std::thread waiter([&] {
    parked_wait(wp, [&] {
      if (wp.stats().parks == parks_before) {
        checks.fetch_add(1, std::memory_order_relaxed);
      }
      return flag.load(std::memory_order_acquire);
    });
  });
  const auto deadline = clock_type::now() + std::chrono::seconds(10);
  while (wp.stats().parks == parks_before && clock_type::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  flag.store(true, std::memory_order_release);
  wp.wake_all();
  waiter.join();
  return checks.load(std::memory_order_relaxed);
}

template <class WP>
class ParkingModes : public testing::Test {};
using BothModes = testing::Types<FutexPoint, YieldPoint>;
TYPED_TEST_SUITE(ParkingModes, BothModes);

// wake_all() with nobody parked must be pure arithmetic: no wake
// recorded, no kernel entered. This is the waker-side cost every
// uncontended fast-path op pays.
TYPED_TEST(ParkingModes, WakeWithNoWaiterIsFree) {
  TypeParam wp;
  for (int i = 0; i < 100; ++i) wp.wake_all();
  const ParkStats s = wp.stats();
  EXPECT_EQ(s.wakes, 0u);
  EXPECT_EQ(s.futex_syscalls, 0u);
  EXPECT_EQ(s.parks, 0u);
}

// A wake that lands between prepare() and park() bumps the epoch, so
// the park must return promptly instead of sleeping on a stale word —
// the no-lost-wakeup property, deterministic single-threaded form.
TYPED_TEST(ParkingModes, WakeBetweenPrepareAndParkIsNotLost) {
  TypeParam wp;
  const std::uint32_t token = wp.prepare();
  wp.wake_all();        // epoch moved past `token`
  wp.park(token);       // FUTEX_WAIT sees word != token -> EAGAIN
  const ParkStats s = wp.stats();
  EXPECT_EQ(s.wakes, 1u);
  EXPECT_EQ(s.parks, 1u);
}

// The racing form: a waiter climbing the full ladder into a park while
// the waker flips the predicate and wakes, many rounds. A single lost
// wakeup hangs the round (and the test times out) — this is the
// Dekker-handshake stress.
TYPED_TEST(ParkingModes, RacingWakerNeverStrandsTheWaiter) {
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    TypeParam wp;
    std::atomic<bool> flag{false};
    std::thread waiter(
        [&] { parked_wait(wp, [&] { return flag.load(std::memory_order_acquire); }); });
    // Sometimes let the waiter reach the park, sometimes race it.
    if (round % 3 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 7)));
    }
    flag.store(true, std::memory_order_release);
    wp.wake_all();
    waiter.join();
  }
  SUCCEED();
}

// An already-true predicate never escalates: no parks, no syscalls —
// but the wait IS recorded as a fast wake, the denominator the
// adaptive layer's park_ratio signal needs (a ratio over parks alone
// cannot distinguish "nobody waits" from "every waiter parks").
TYPED_TEST(ParkingModes, SatisfiedWaitRecordsAFastWakeAndNothingElse) {
  TypeParam wp;
  parked_wait(wp, [] { return true; });
  const ParkStats s = wp.stats();
  EXPECT_EQ(s.parks, 0u);
  EXPECT_EQ(s.futex_syscalls, 0u);
  EXPECT_EQ(s.fast_wakes, 1u);
  EXPECT_EQ(s.park_ratio(), 0.0);
}

// park_ratio() must be defined (0.0, not NaN) before any wait has
// ever finished — the adaptive monitor reads it on its first window.
TYPED_TEST(ParkingModes, ParkRatioIsZeroNotNaNWithNoHistory) {
  TypeParam wp;
  const ParkStats s = wp.stats();
  EXPECT_EQ(s.parks, 0u);
  EXPECT_EQ(s.fast_wakes, 0u);
  EXPECT_EQ(s.park_ratio(), 0.0);
}

// Once a wait actually reaches rung 3, the ratio moves off zero; mixed
// with fast wakes it stays a proper fraction of all finished waits.
TYPED_TEST(ParkingModes, ParkRatioReflectsParkedVersusFastWaits) {
  TypeParam wp;
  (void)checks_before_park(wp);
  EXPECT_GT(wp.stats().park_ratio(), 0.0);

  // Nine satisfied waits dilute the ratio below 1 but not to 0.
  for (int i = 0; i < 9; ++i) parked_wait(wp, [] { return true; });
  const ParkStats s = wp.stats();
  EXPECT_GE(s.fast_wakes, 9u);
  EXPECT_GT(s.park_ratio(), 0.0);
  EXPECT_LT(s.park_ratio(), 1.0);
}

// The rung-3 entry threshold is a runtime knob (the adaptive layer's
// wait actuator): negative values clamp to 0, and a threshold of 1
// parks on the first ladder saturation, kYieldsBeforePark - 1 yield
// rungs (one predicate check each) sooner than the default.
TYPED_TEST(ParkingModes, YieldsBeforeParkIsARuntimeKnob) {
  TypeParam wp;
  EXPECT_EQ(wp.yields_before_park(), kYieldsBeforePark);
  const std::uint64_t at_default = checks_before_park(wp);
  ASSERT_GT(wp.stats().parks, 0u);

  wp.set_yields_before_park(-5);
  EXPECT_EQ(wp.yields_before_park(), 0);
  wp.set_yields_before_park(1);
  EXPECT_EQ(wp.yields_before_park(), 1);
  const std::uint64_t parks_before = wp.stats().parks;
  const std::uint64_t at_one = checks_before_park(wp);
  ASSERT_GT(wp.stats().parks, parks_before);
  EXPECT_EQ(at_default - at_one,
            static_cast<std::uint64_t>(kYieldsBeforePark - 1));
}

// A wait that outlives the whole spin/yield ladder must reach rung 3:
// parks > 0 in BOTH modes (the yield fallback counts its fallback
// yields as parks — that is what lets shm_test's stalled-server case
// hold under forced-fallback builds).
TYPED_TEST(ParkingModes, LongWaitEscalatesToAPark) {
  TypeParam wp;
  (void)checks_before_park(wp);
  EXPECT_GT(wp.stats().parks, 0u);
}

// Fast wakes are tallied in per-thread cells; with more threads than
// cells some threads share one, and the total must still be exact —
// in both modes and both futex scopes. One genuinely parked wait first
// keeps park_ratio() a proper fraction strictly inside (0, 1).
template <class WP>
class FastWakeCells : public testing::Test {};
using ModesAndScopes =
    testing::Types<FutexPoint, YieldPoint,
                   WaitPoint<FutexScope::kShared, WaitMode::kFutex>,
                   WaitPoint<FutexScope::kShared, WaitMode::kYield>>;
TYPED_TEST_SUITE(FastWakeCells, ModesAndScopes);

TYPED_TEST(FastWakeCells, CountIsExactWithMoreThreadsThanCells) {
  constexpr int kThreads = static_cast<int>(2 * kFastWakeCells + 3);
  constexpr std::uint64_t kWaitsPerThread = 1000;
  TypeParam wp;

  (void)checks_before_park(wp);
  ASSERT_GT(wp.stats().parks, 0u);
  ASSERT_EQ(wp.stats().fast_wakes, 0u);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kWaitsPerThread; ++i) {
        parked_wait(wp, [] { return true; });
      }
    });
  }
  for (auto& th : threads) th.join();

  const ParkStats s = wp.stats();
  EXPECT_EQ(s.fast_wakes,
            static_cast<std::uint64_t>(kThreads) * kWaitsPerThread);
  EXPECT_GT(s.park_ratio(), 0.0);
  EXPECT_LT(s.park_ratio(), 1.0);
}

// The wait_until() overload: a native context takes the parked_wait
// path, visible through the WaitPoint's own telemetry.
TEST(WaitUntil, NativeContextRoutesThroughTheWaitPoint) {
  WaitPoint<> wp;
  std::atomic<bool> flag{false};
  std::thread waiter([&] {
    NativeContext wctx(1);
    wait_until(wctx,
               [&] { return flag.load(std::memory_order_acquire); }, wp);
  });
  // Release the waiter only once it has parked: a fixed sleep can end
  // before a slow (sanitized, oversubscribed) waiter climbs the ladder.
  const auto deadline = clock_type::now() + std::chrono::seconds(10);
  while (wp.stats().parks == 0 && clock_type::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  flag.store(true, std::memory_order_release);
  wp.wake_all();
  waiter.join();
  EXPECT_GT(wp.stats().parks, 0u);
}

}  // namespace
}  // namespace scm

// ---------------------------------------------------------------------------
// Cross-process: the shared-scope word through a real second process.

#include "shm/shm_arena.hpp"  // defines SCM_HAS_POSIX_SHM

#if SCM_HAS_POSIX_SHM

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>

#include "history/specs.hpp"
#include "shm/shm_combining.hpp"
#include "shm/shm_counter.hpp"
#include "shm_mapping.hpp"

namespace scm {
namespace {

// Segment-resident cell: a flag (the predicate) plus the shared-scope
// wait point. Pointer-free, fixed layout.
struct ParkCell {
  std::atomic<std::uint32_t> flag{0};
  WaitPoint<FutexScope::kShared> wp;
};

// A waiter parked in a second process — which reaches the cell through
// its own mapping, so its address differs — must be woken by this
// process's wake_all(). kShared keys the wait queue on the physical
// page; a kPrivate word here would strand the child (and the scm_lint
// futex-word rule rejects it statically).
TEST(ParkingShm, SharedWaitPointWakesAcrossProcesses) {
  SharedMapping mapping(sizeof(ParkCell));
  ParkCell& cell = mapping.emplace<ParkCell>();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: map the cell afresh (own base address), park until the
    // parent raises the flag. _exit codes, not gtest.
    auto* mine = static_cast<ParkCell*>(mapping.map_again());
    if (mine == &cell) ::_exit(10);
    parked_wait(mine->wp, [mine] {
      return mine->flag.load(std::memory_order_acquire) != 0;
    });
    ::_exit(0);
  }

  // Wait until the child has actually reached rung 3 (the counters
  // live in the segment, so the parent sees them). If the wake below
  // raced an in-flight FUTEX_WAIT, the epoch bump still makes it
  // return — that is the protocol under test.
  const auto deadline = clock_type::now() + std::chrono::seconds(30);
  while (cell.wp.stats().parks == 0) {
    ASSERT_LT(clock_type::now(), deadline) << "child never parked";
    std::this_thread::yield();
  }

  cell.flag.store(1, std::memory_order_release);
  cell.wp.wake_all();

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_GE(cell.wp.stats().wakes, 1u);
}

// SIGKILL lands while a client is PARKED inside ShmCombining's invoke
// wait (not just spinning): the kernel discards the dead waiter, the
// published op still executes, reclaim_dead() sweeps the residue, and
// the combiner stays serviceable. The pre-kill park check makes this
// strictly stronger than shm_test's reclaim test, which kills a
// spinning publisher.
TEST(ParkingShm, SigkillWhileParkedStillReclaims) {
  using TestCombining = ShmCombining<ShmCounter, 8>;
  SharedMapping mapping(sizeof(TestCombining));
  TestCombining& comb = mapping.emplace<TestCombining>();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: one op, may_combine = false, no server anywhere — the
    // kDone wait escalates through the ladder into a park and stays
    // there until the SIGKILL.
    NativeContext ctx(1);
    (void)comb.invoke(ctx, Request{1, 1, CounterSpec::kFetchInc, 0},
                      std::nullopt, /*may_combine=*/false);
    ::_exit(0);  // unreachable
  }

  // The kill must land while the child is parked, not merely publishing.
  const auto deadline = clock_type::now() + std::chrono::seconds(30);
  while (comb.pending() == 0 || comb.park_stats().parks == 0) {
    ASSERT_LT(clock_type::now(), deadline) << "child never parked";
    std::this_thread::yield();
  }

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The publication survived its parked publisher; a serve executes it.
  NativeContext ctx(0);
  EXPECT_EQ(comb.pending(), 1u);
  EXPECT_TRUE(comb.try_serve(ctx));
  EXPECT_EQ(comb.object().value(), 1);

  // The corpse's kDone record is swept; the dead waiter's flag bit in
  // the futex word costs at most one spurious syscall, never a hang.
  EXPECT_EQ(comb.reclaim_dead(ctx), 1u);
  EXPECT_EQ(comb.occupied(), 0u);
  EXPECT_GT(comb.park_stats().parks, 0u);

  // Fully serviceable afterwards.
  EXPECT_TRUE(
      comb.invoke(ctx, Request{2, 0, CounterSpec::kFetchInc, 0}).committed());
  EXPECT_EQ(comb.object().value(), 2);
}

}  // namespace
}  // namespace scm

#endif  // SCM_HAS_POSIX_SHM
