// Tests for the deterministic simulator: scheduling exclusivity,
// determinism, step accounting, contention verdicts, crash injection,
// and the exhaustive explorer.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "runtime/primitives.hpp"
#include "runtime/registers.hpp"
#include "sim/explorer.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"

namespace scm::sim {
namespace {

TEST(Simulator, SingleProcessRunsToCompletion) {
  Simulator sim;
  NativeRegister<int> reg(0);
  sim.add_process([&](SimContext& ctx) {
    ctx.begin_op(1);
    reg.write(ctx, 42);
    const int v = reg.read(ctx);
    ctx.end_op(v);
  });
  SequentialSchedule sched;
  const auto steps = sim.run(sched);
  EXPECT_EQ(steps, 2u);
  ASSERT_EQ(sim.ops().size(), 1u);
  EXPECT_EQ(sim.ops()[0].output, 42);
  EXPECT_TRUE(sim.ops()[0].complete);
  EXPECT_EQ(sim.counters(0).reads, 1u);
  EXPECT_EQ(sim.counters(0).writes, 1u);
}

TEST(Simulator, SequentialScheduleHasNoContention) {
  Simulator sim;
  NativeRegister<int> reg(0);
  for (int p = 0; p < 4; ++p) {
    sim.add_process([&](SimContext& ctx) {
      ctx.begin_op();
      for (int i = 0; i < 3; ++i) {
        reg.write(ctx, ctx.id());
        (void)reg.read(ctx);
      }
      ctx.end_op();
    });
  }
  SequentialSchedule sched;
  sim.run(sched);
  ASSERT_EQ(sim.ops().size(), 4u);
  for (const auto& op : sim.ops()) {
    EXPECT_FALSE(sim.op_has_step_contention(op));
    EXPECT_EQ(sim.op_interval_contention(op), 0);
  }
}

TEST(Simulator, RoundRobinScheduleCreatesStepContention) {
  Simulator sim;
  NativeRegister<int> reg(0);
  for (int p = 0; p < 2; ++p) {
    sim.add_process([&](SimContext& ctx) {
      ctx.begin_op();
      for (int i = 0; i < 4; ++i) reg.write(ctx, ctx.id());
      ctx.end_op();
    });
  }
  RoundRobinSchedule sched(1);
  sim.run(sched);
  for (const auto& op : sim.ops()) {
    EXPECT_TRUE(sim.op_has_step_contention(op));
    EXPECT_EQ(sim.op_interval_contention(op), 1);
  }
}

TEST(Simulator, StepsAreMutuallyExclusiveAndTotal) {
  // Increment a plain (non-atomic in the C++ sense) shared register from
  // many processes; under correct token passing read-modify-write done
  // as two *separate* steps may lose updates under round-robin, but the
  // total step count must be exact and no torn values can appear.
  Simulator sim;
  NativeRegister<int> reg(0);
  constexpr int kProcs = 8;
  constexpr int kIters = 5;
  for (int p = 0; p < kProcs; ++p) {
    sim.add_process([&](SimContext& ctx) {
      for (int i = 0; i < kIters; ++i) {
        const int v = reg.read(ctx);
        reg.write(ctx, v + 1);
      }
    });
  }
  RandomSchedule sched(/*seed=*/7);
  const auto steps = sim.run(sched);
  EXPECT_EQ(steps, static_cast<std::uint64_t>(kProcs * kIters * 2));
  EXPECT_GE(reg.peek(), 1);
  EXPECT_LE(reg.peek(), kProcs * kIters);
}

TEST(Simulator, DeterministicUnderSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    auto reg = std::make_unique<NativeRegister<int>>(0);
    for (int p = 0; p < 4; ++p) {
      sim.add_process([&reg](SimContext& ctx) {
        for (int i = 0; i < 6; ++i) {
          const int v = reg->read(ctx);
          reg->write(ctx, v * 3 + ctx.id());
        }
      });
    }
    RandomSchedule sched(seed);
    sim.run(sched);
    return reg->peek();
  };
  EXPECT_EQ(run_once(123), run_once(123));
  EXPECT_EQ(run_once(9), run_once(9));
}

TEST(Simulator, CrashInjectionStopsProcessMidOperation) {
  Simulator sim;
  NativeRegister<int> reg(0);
  sim.add_process([&](SimContext& ctx) {
    ctx.begin_op();
    reg.write(ctx, 1);
    reg.write(ctx, 2);
    reg.write(ctx, 3);
    ctx.end_op();
  });
  sim.add_process([&](SimContext& ctx) {
    ctx.begin_op();
    (void)reg.read(ctx);
    ctx.end_op();
  });
  SequentialSchedule inner;
  CrashSchedule sched(inner, {{0, 1}});  // crash pid 0 at its 2nd grant
  sim.run(sched);
  EXPECT_TRUE(sim.crashed(0));
  EXPECT_FALSE(sim.crashed(1));
  ASSERT_EQ(sim.ops().size(), 2u);
  EXPECT_FALSE(sim.ops()[0].complete);
  EXPECT_TRUE(sim.ops()[1].complete);
  EXPECT_EQ(reg.peek(), 1);  // exactly one write landed before the crash
}

// The native base objects are context-generic, and the simulator runs
// them under SimContext — so a crash at their step must unwind
// through them (noexcept there would turn the Crashed exception into
// std::terminate). Natively they stay noexcept. One entry per step:
// register read and write, test&set, compare&swap, fetch&add.
template <class Ctx>
constexpr std::array<bool, 5> steps_noexcept() {
  using std::declval;
  return {
      noexcept(declval<NativeRegister<int>&>().read(declval<Ctx&>())),
      noexcept(declval<NativeRegister<int>&>().write(declval<Ctx&>(), 0)),
      noexcept(declval<NativeTas&>().test_and_set(declval<Ctx&>())),
      noexcept(declval<NativeCas<int>&>().compare_and_swap(
          declval<Ctx&>(), declval<int&>(), 0)),
      noexcept(declval<NativeCounter&>().fetch_add(declval<Ctx&>()))};
}
static_assert(steps_noexcept<SimContext>() ==
              std::array{false, false, false, false, false});
static_assert(steps_noexcept<NativeContext>() ==
              std::array{true, true, true, true, true});

TEST(Simulator, CrashInsideNativeCounterFetchAddUnwinds) {
  Simulator sim;
  NativeCounter counter;
  sim.add_process([&](SimContext& ctx) {
    ctx.begin_op();
    (void)counter.fetch_add(ctx);
    (void)counter.fetch_add(ctx);
    ctx.end_op();
  });
  SequentialSchedule inner;
  CrashSchedule sched(inner, {{0, 1}});  // crash at the 2nd fetch_add
  sim.run(sched);
  EXPECT_TRUE(sim.crashed(0));
  ASSERT_EQ(sim.ops().size(), 1u);
  EXPECT_FALSE(sim.ops()[0].complete);
  EXPECT_EQ(counter.peek(), 1u);  // exactly one add landed before the crash
}

// ---- the accessor contract (runtime/context.hpp) ----------------------
//
// Each accessor is one call on a std::atomic<int> holding 1 (and, for
// read, a plain payload int): the step kind it must log, and the value
// the atomic must hold after it.
struct LoadCall {
  static constexpr Access kKind = Access::kRead;
  static constexpr int kAfter = 1;
  template <class Ctx>
  static void run(Ctx& ctx, std::atomic<int>& a, int& /*payload*/) {
    EXPECT_EQ(ctx.load(a, std::memory_order_seq_cst), 1);
  }
};
struct StoreCall {
  static constexpr Access kKind = Access::kWrite;
  static constexpr int kAfter = 5;
  template <class Ctx>
  static void run(Ctx& ctx, std::atomic<int>& a, int& /*payload*/) {
    ctx.store(a, 5, std::memory_order_release);
  }
};
struct UpdateStoreCall {
  static constexpr Access kKind = Access::kWrite;
  static constexpr int kAfter = 11;
  template <class Ctx>
  static void run(Ctx& ctx, std::atomic<int>& a, int& /*payload*/) {
    ctx.store(a, [](int v) { return v + 10; }, std::memory_order_release);
  }
};
struct ExchangeCall {
  static constexpr Access kKind = Access::kRmw;
  static constexpr int kAfter = 7;
  template <class Ctx>
  static void run(Ctx& ctx, std::atomic<int>& a, int& /*payload*/) {
    EXPECT_EQ(ctx.exchange(a, 7, std::memory_order_acq_rel), 1);
  }
};
struct FetchAddCall {
  static constexpr Access kKind = Access::kRmw;
  static constexpr int kAfter = 3;
  template <class Ctx>
  static void run(Ctx& ctx, std::atomic<int>& a, int& /*payload*/) {
    EXPECT_EQ(ctx.fetch_add(a, 2, std::memory_order_acq_rel), 1);
  }
};
struct CasCall {
  static constexpr Access kKind = Access::kRmw;
  static constexpr int kAfter = 9;
  template <class Ctx>
  static void run(Ctx& ctx, std::atomic<int>& a, int& /*payload*/) {
    int expected = 1;
    EXPECT_TRUE(ctx.cas(a, expected, 9, std::memory_order_acq_rel,
                        std::memory_order_relaxed));
  }
};
struct ReadCall {
  static constexpr Access kKind = Access::kRead;
  static constexpr int kAfter = 1;
  template <class Ctx>
  static void run(Ctx& ctx, std::atomic<int>& /*a*/, int& payload) {
    int& got = ctx.read(payload);
    EXPECT_EQ(&got, &payload);
  }
};

template <class Call>
class StepAccessor : public testing::Test {};
using AccessorCalls = testing::Types<LoadCall, StoreCall, UpdateStoreCall,
                                     ExchangeCall, FetchAddCall, CasCall,
                                     ReadCall>;
TYPED_TEST_SUITE(StepAccessor, AccessorCalls);

// The StepCounters a single step of `kind` leaves behind.
StepCounters one_step_of(Access kind) {
  StepCounters c;
  if (kind == Access::kRead) ++c.reads;
  if (kind == Access::kWrite) ++c.writes;
  if (kind == Access::kRmw) ++c.rmws;
  return c;
}

// One call, one StepRecord of the accessor's kind, one bump of its
// field; natively the same bump.
TYPED_TEST(StepAccessor, TakesOneStepOfItsKind) {
  Simulator sim;
  std::atomic<int> a{1};
  int payload = 1;
  sim.add_process(
      [&](SimContext& ctx) { TypeParam::run(ctx, a, payload); });
  SequentialSchedule sched;
  EXPECT_EQ(sim.run(sched), 1u);
  ASSERT_EQ(sim.steps().size(), 1u);
  EXPECT_EQ(sim.steps()[0].kind, TypeParam::kKind);
  EXPECT_EQ(sim.counters(0), one_step_of(TypeParam::kKind));
  EXPECT_EQ(a.load(), TypeParam::kAfter);

  NativeContext native(0);
  std::atomic<int> b{1};
  TypeParam::run(native, b, payload);
  EXPECT_EQ(native.counters(), one_step_of(TypeParam::kKind));
  EXPECT_EQ(b.load(), TypeParam::kAfter);
}

// A crash at step index 1: the process first takes one read step on
// another atomic (step index 0 is also the start grant's, which a crash
// there would kill before the body runs), then dies at the grant of
// its next step.
constexpr std::uint64_t kSecondStep = 1;

template <class Call>
void after_one_read(SimContext& ctx, std::atomic<int>& a, int& payload) {
  std::atomic<int> other{0};
  (void)ctx.load(other, std::memory_order_relaxed);
  Call::run(ctx, a, payload);
}

// Killed at its step, the process never reaches the access: the step
// comes first.
TYPED_TEST(StepAccessor, CrashAtTheStepLeavesTheAtomicUnchanged) {
  Simulator sim;
  std::atomic<int> a{1};
  int payload = 1;
  sim.add_process(
      [&](SimContext& ctx) { after_one_read<TypeParam>(ctx, a, payload); });
  SequentialSchedule inner;
  CrashSchedule sched(inner, {{0, kSecondStep}});
  sim.run(sched);
  EXPECT_TRUE(sim.crashed(0));
  EXPECT_EQ(sim.steps().size(), 1u);  // the read before it
  EXPECT_EQ(sim.counters(0), one_step_of(Access::kRead));
  EXPECT_EQ(a.load(), 1);
}

// late_cas, the one exception: a losing CAS takes no step and counts
// nothing; a winning one logs one kRmw after the CAS, so a crash at
// that step finds the CAS done.
template <class Ctx>
bool late_cas_from(Ctx& ctx, std::atomic<int>& a, int from) {
  return ctx.late_cas(a, from, 9, std::memory_order_acq_rel,
                      std::memory_order_relaxed);
}

TEST(StepAccessorLateCas, LosingTakesNoStepAndCountsNothing) {
  Simulator sim;
  std::atomic<int> a{1};
  sim.add_process(
      [&](SimContext& ctx) { EXPECT_FALSE(late_cas_from(ctx, a, 2)); });
  SequentialSchedule sched;
  EXPECT_EQ(sim.run(sched), 0u);
  EXPECT_TRUE(sim.steps().empty());
  EXPECT_EQ(sim.counters(0), StepCounters{});
  EXPECT_EQ(a.load(), 1);

  NativeContext native(0);
  EXPECT_FALSE(late_cas_from(native, a, 2));
  EXPECT_EQ(native.counters(), StepCounters{});
}

TEST(StepAccessorLateCas, WinningLogsOneRmwAfterTheCas) {
  Simulator sim;
  std::atomic<int> a{1};
  sim.add_process(
      [&](SimContext& ctx) { EXPECT_TRUE(late_cas_from(ctx, a, 1)); });
  SequentialSchedule sched;
  EXPECT_EQ(sim.run(sched), 1u);
  ASSERT_EQ(sim.steps().size(), 1u);
  EXPECT_EQ(sim.steps()[0].kind, Access::kRmw);
  EXPECT_EQ(sim.counters(0), one_step_of(Access::kRmw));
  EXPECT_EQ(a.load(), 9);

  struct LateCasCall {
    static void run(SimContext& ctx, std::atomic<int>& a, int& /*payload*/) {
      (void)late_cas_from(ctx, a, 1);
    }
  };
  Simulator crashed;
  std::atomic<int> b{1};
  int payload = 0;
  crashed.add_process([&](SimContext& ctx) {
    after_one_read<LateCasCall>(ctx, b, payload);
  });
  SequentialSchedule inner;
  CrashSchedule kill_at_the_step(inner, {{0, kSecondStep}});
  crashed.run(kill_at_the_step);
  EXPECT_TRUE(crashed.crashed(0));
  EXPECT_EQ(crashed.counters(0), one_step_of(Access::kRead));
  EXPECT_EQ(b.load(), 9);  // the CAS landed before its step

  NativeContext native(0);
  std::atomic<int> c{1};
  EXPECT_TRUE(late_cas_from(native, c, 1));
  EXPECT_EQ(native.counters(), one_step_of(Access::kRmw));
}

TEST(Simulator, StepLimitTerminatesRun) {
  Simulator sim(/*max_steps=*/10);
  NativeRegister<int> reg(0);
  sim.add_process([&](SimContext& ctx) {
    for (;;) reg.write(ctx, 1);  // unbounded loop, must be cut off
  });
  SequentialSchedule sched;
  sim.run(sched);
  EXPECT_TRUE(sim.hit_step_limit());
  EXPECT_TRUE(sim.crashed(0));
}

TEST(Simulator, CasSemantics) {
  Simulator sim;
  NativeCas<int> cas(0);
  std::vector<int> won(2, 0);
  for (int p = 0; p < 2; ++p) {
    sim.add_process([&, p](SimContext& ctx) {
      int expected = 0;
      if (cas.compare_and_swap(ctx, expected, p + 1)) won[p] = 1;
    });
  }
  RoundRobinSchedule sched(1);
  sim.run(sched);
  EXPECT_EQ(won[0] + won[1], 1);  // exactly one CAS succeeds
  EXPECT_EQ(cas.peek(), won[0] == 1 ? 1 : 2);
}

TEST(Simulator, TasExactlyOneWinner) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Simulator sim;
    NativeTas tas;
    std::vector<int> result(4, -1);
    for (int p = 0; p < 4; ++p) {
      sim.add_process(
          [&, p](SimContext& ctx) { result[p] = tas.test_and_set(ctx); });
    }
    RandomSchedule sched(seed);
    sim.run(sched);
    EXPECT_EQ(std::count(result.begin(), result.end(), 0), 1);
  }
}

TEST(Explorer, EnumeratesAllInterleavingsOfTwoWriters) {
  // Two processes, two writes each => choice tree with known leaf count.
  // Every leaf must leave the register holding the id of whoever wrote
  // last, and the explorer must visit multiple distinct outcomes.
  std::set<int> finals;
  std::uint64_t runs = 0;
  auto stats = explore_all_schedules(
      [&]() {
        auto sim = std::make_unique<Simulator>();
        auto reg = std::make_shared<NativeRegister<int>>(-1);
        for (int p = 0; p < 2; ++p) {
          sim->add_process([reg, p](SimContext& ctx) {
            reg->write(ctx, p);
            reg->write(ctx, p + 10);
          });
        }
        // Keep the register alive beyond this scope via the check hook:
        // stash the final value in the op record stream instead.
        sim->add_process([reg](SimContext& ctx) {
          ctx.begin_op();
          ctx.end_op(reg->read(ctx));
        });
        return sim;
      },
      [&](Simulator& sim) {
        ++runs;
        ASSERT_EQ(sim.ops().size(), 1u);
        finals.insert(static_cast<int>(sim.ops()[0].output));
      });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, runs);
  EXPECT_GT(runs, 10u);
  // The reader can observe -1 (before any write) through 10/11 (after
  // final writes); at minimum both "p0 last" and "p1 last" leaves exist.
  EXPECT_TRUE(finals.count(10) == 1 || finals.count(11) == 1);
  EXPECT_GE(finals.size(), 3u);
}

TEST(Explorer, RespectsRunLimit) {
  auto stats = explore_all_schedules(
      [&]() {
        auto sim = std::make_unique<Simulator>();
        auto reg = std::make_shared<NativeRegister<int>>(0);
        for (int p = 0; p < 3; ++p) {
          sim->add_process([reg](SimContext& ctx) {
            for (int i = 0; i < 4; ++i) reg->write(ctx, i);
          });
        }
        return sim;
      },
      [](Simulator&) {}, /*max_runs=*/50);
  EXPECT_FALSE(stats.exhausted);
  EXPECT_EQ(stats.runs, 50u);
}

}  // namespace
}  // namespace scm::sim
