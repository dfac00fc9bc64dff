// Tests for the shared spin-wait pacing layer (support/backoff.hpp).
//
// The point of this translation unit is the #define below: it forces
// the generic cpu_pause() fallback (compiler-barrier, no spin-hint
// instruction) on EVERY target, so the portability path is compiled
// and executed on x86-only CI instead of rotting until someone builds
// on an architecture without `pause`/`yield`. The instruction path is
// exercised by every other test binary in the tree — combining_test,
// async_test and the shm suite all spin through the same header with
// the default definition.
#define SCM_FORCE_GENERIC_CPU_PAUSE 1
#include "support/backoff.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace scm {
namespace {

// The forced-generic cpu_pause() must be callable and must not hang,
// trap, or clobber anything — it is a pure pacing hint.
TEST(Backoff, GenericCpuPauseIsANoOpHint) {
  for (int i = 0; i < 1000; ++i) cpu_pause();
  SUCCEED();
}

// The ladder's shape is fixed: 8 bare re-reads, then 255 steps of one
// pause each, so the caller re-checks after every pause.
static_assert(kBareSpins == 8);
static_assert(kPauseSteps == 255);

// Walk the whole ladder: 8 bare rungs, 255 single-pause rungs, then
// the saturated yield rung. The counter stops advancing once
// saturated — callers reset it themselves when the wait ends.
TEST(Backoff, LadderAdvancesThenSaturates) {
  int spins = 0;
  for (int i = 0; i < 8; ++i) spin_backoff(spins);  // bare re-reads
  EXPECT_EQ(spins, 8);
  for (int i = 0; i < 255; ++i) spin_backoff(spins);  // one pause each
  EXPECT_EQ(spins, 263);
  for (int i = 0; i < 32; ++i) spin_backoff(spins);  // yield, forever
  EXPECT_EQ(spins, 263);
}

// Regression: because `spins` stops advancing at saturation, the
// RETURN VALUE is the only signal that the wait has become long — a
// caller watching the counter alone can never tell rung 263 ("about to
// yield for the first time") from rung 263 after a thousand yields.
// The parking layer (support/parking.hpp) escalates to a futex park
// off exactly this signal, so: every pre-saturation call must return
// false, every saturated call true, indefinitely.
TEST(Backoff, SaturationIsSignalledThroughTheReturnValue) {
  int spins = 0;
  for (int i = 0; i < 263; ++i) {
    EXPECT_FALSE(spin_backoff(spins)) << "rung " << i;
    EXPECT_EQ(spins, i + 1);
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(spin_backoff(spins)) << "saturated call " << i;
    EXPECT_EQ(spins, 263);
  }
}

// The ladder must actually pace a real wait to completion: a thread
// spinning on a flag with spin_backoff observes the write even when
// the ladder has long since saturated into yields.
TEST(Backoff, PacedSpinWaitObservesTheWrite) {
  std::atomic<bool> flag{false};
  std::thread waiter([&] {
    int spins = 0;
    while (!flag.load(std::memory_order_acquire)) spin_backoff(spins);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  flag.store(true, std::memory_order_release);
  waiter.join();
  SUCCEED();
}

}  // namespace
}  // namespace scm
