// Tests that pin the exhaustive explorer's enumeration itself — not a
// property checked over the runs, but the SHAPE of the search:
//
//  * the run count on a known choice tree equals the closed-form
//    interleaving count (if the explorer ever under-counts, every
//    "verified over all interleavings" claim in this repo silently
//    weakens — this test is the canary);
//  * truncation by max_runs reports exhausted = false and exactly
//    max_runs runs, so a gating test can always distinguish "proved
//    over the full tree" from "gave up early";
//  * the crash predicate (kill points) adds no branching of its own —
//    one that never fires leaves the tree exactly as it was;
//  * the await() conditional-wait primitive underneath it: parked
//    processes stay out of the runnable set while their predicate is
//    false (no spurious branching), wakes are scheduling events but
//    not shared-memory steps, an unsatisfiable predicate aborts as a
//    simulated deadlock instead of hanging the exploration, and a
//    process blocked on such a predicate can still be crashed there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/explorer.hpp"
#include "sim/schedules.hpp"
#include "sim/sim_platform.hpp"
#include "sim/simulator.hpp"

namespace scm::sim {
namespace {

// ---------------------------------------------------------------------------
// Exact enumeration counts

// Two processes, three counted writes each. Every process costs the
// scheduler one startup grant (processes park before their first
// instruction) plus one grant per shared-memory step: 4 grants each.
// The explorer's leaves are exactly the interleavings of the two
// 4-grant sequences: C(8,4) = 70.
TEST(Explorer, PinsExactLeafCountOnKnownTree) {
  std::uint64_t observed = 0;
  auto stats = explore_all_schedules(
      [] {
        auto sim = std::make_unique<Simulator>();
        auto reg = std::make_shared<SimPlatform::Register<int>>(0);
        for (int p = 0; p < 2; ++p) {
          sim->add_process([reg](SimContext& ctx) {
            for (int i = 0; i < 3; ++i) reg->write(ctx, i);
          });
        }
        return sim;
      },
      [&](Simulator& sim) {
        ++observed;
        EXPECT_EQ(sim.steps_taken(), 6u);
      });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 70u);
  EXPECT_EQ(observed, stats.runs);
}

// Same shape, one process heavier: sequences of 4 and 5 grants give
// C(9,4) = 126 leaves. Pinning a second, asymmetric tree guards
// against an explorer bug that happens to preserve symmetric counts.
TEST(Explorer, PinsLeafCountOnAsymmetricTree) {
  auto stats = explore_all_schedules(
      [] {
        auto sim = std::make_unique<Simulator>();
        auto reg = std::make_shared<SimPlatform::Register<int>>(0);
        sim->add_process([reg](SimContext& ctx) {
          for (int i = 0; i < 3; ++i) reg->write(ctx, i);
        });
        sim->add_process([reg](SimContext& ctx) {
          for (int i = 0; i < 4; ++i) reg->write(ctx, i);
        });
        return sim;
      },
      [](Simulator&) {});
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 126u);
}

// Kill points are consulted at every grant, but a predicate that never
// fires must not perturb the enumeration: same 70 leaves as above.
TEST(Explorer, NeverFiringCrashPredicateLeavesTreeUnchanged) {
  std::uint64_t consulted = 0;
  auto stats = explore_all_schedules(
      [] {
        auto sim = std::make_unique<Simulator>();
        auto reg = std::make_shared<SimPlatform::Register<int>>(0);
        for (int p = 0; p < 2; ++p) {
          sim->add_process([reg](SimContext& ctx) {
            for (int i = 0; i < 3; ++i) reg->write(ctx, i);
          });
        }
        return sim;
      },
      [](Simulator& sim) {
        EXPECT_FALSE(sim.crashed(0));
        EXPECT_FALSE(sim.crashed(1));
      },
      [&](ProcessId, const Simulator&) {
        ++consulted;
        return false;
      });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 70u);
  EXPECT_EQ(consulted, stats.runs * 8);  // every one of the 8 grants
}

// Truncation must be loud: exactly max_runs runs, exhausted = false.
TEST(Explorer, TruncationReportsNotExhausted) {
  auto stats = explore_all_schedules(
      [] {
        auto sim = std::make_unique<Simulator>();
        auto reg = std::make_shared<SimPlatform::Register<int>>(0);
        for (int p = 0; p < 2; ++p) {
          sim->add_process([reg](SimContext& ctx) {
            for (int i = 0; i < 3; ++i) reg->write(ctx, i);
          });
        }
        return sim;
      },
      [](Simulator&) {}, /*max_runs=*/10);
  EXPECT_FALSE(stats.exhausted);
  EXPECT_EQ(stats.runs, 10u);
}

// ---------------------------------------------------------------------------
// The await() primitive

// A process parked on a false predicate takes no turns: the writer runs
// unimpeded, the waiter resumes only once the predicate holds, and the
// wake shows up in the step log as a kWake event that bumps no
// StepCounters field (it is a scheduling event, not a shared-memory
// step in the paper's cost model).
TEST(Await, ParksUntilPredicateHoldsAndWakeIsNotAStep) {
  Simulator sim;
  SimPlatform::Register<int> reg(0);
  std::vector<int> order;
  sim.add_process([&](SimContext& ctx) {
    ctx.await([&] { return reg.peek() == 1; });
    order.push_back(0);
    reg.write(ctx, 2);
  });
  sim.add_process([&](SimContext& ctx) {
    order.push_back(1);
    reg.write(ctx, 1);
  });
  SequentialSchedule sched;  // favors pid 0 — which must yield while parked
  sim.run(sched);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // writer went first despite the schedule's bias
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(reg.peek(), 2);
  // The waiter's counted work is its one write; the wake added nothing.
  EXPECT_EQ(sim.counters(0).writes, 1u);
  EXPECT_EQ(sim.counters(0).reads, 0u);
  EXPECT_EQ(sim.counters(0).rmws, 0u);
  const auto& steps = sim.steps();
  const bool has_wake =
      std::any_of(steps.begin(), steps.end(),
                  [](const StepRecord& s) { return s.kind == Access::kWake; });
  EXPECT_TRUE(has_wake);
}

// A parked process contributes no interleavings while its predicate is
// false. The only branching left is where the waiter's STARTUP grant
// (taken before it reaches await) lands among the writer's 4 grants:
// 5 positions, so exactly 5 leaves. The await itself — wake plus the
// waiter's final write — adds none: if it branched, the count would be
// C(9,4)-ish, not 5.
TEST(Await, WaitingProcessAddsNoBranching) {
  auto stats = explore_all_schedules(
      [] {
        auto sim = std::make_unique<Simulator>();
        auto reg = std::make_shared<SimPlatform::Register<int>>(0);
        sim->add_process([reg](SimContext& ctx) {
          ctx.await([reg] { return reg->peek() == 3; });
          reg->write(ctx, 99);
        });
        sim->add_process([reg](SimContext& ctx) {
          for (int i = 1; i <= 3; ++i) reg->write(ctx, i);
        });
        return sim;
      },
      [](Simulator& sim) { EXPECT_EQ(sim.steps_taken(), 5u); });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 5u);
}

// Every live process parked on a predicate that can never become true
// is a lost wakeup — the simulator must abort loudly, not hang.
TEST(AwaitDeathTest, UnsatisfiablePredicateAbortsAsDeadlock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        SimPlatform::Register<int> reg(0);
        sim.add_process([&](SimContext& ctx) {
          ctx.await([&] { return reg.peek() == 42; });  // never written
        });
        SequentialSchedule sched;
        sim.run(sched);
      },
      "simulated deadlock");
}

// A process parked on a predicate that never turns true is never
// picked, yet a crash predicate can still kill it where it waits: it
// unwinds out of await() (its open op reads incomplete), and because it
// is gone rather than blocked, the deadlock check does not trip.
TEST(Await, BlockedWaiterCanBeCrashedWhereItWaits) {
  auto stats = explore_all_schedules(
      [] {
        auto sim = std::make_unique<Simulator>();
        auto reg = std::make_shared<SimPlatform::Register<int>>(0);
        sim->add_process([reg](SimContext& ctx) {
          ctx.begin_op();
          reg->write(ctx, 1);
          ctx.await([reg] { return reg->peek() == 42; });  // never written
          ctx.end_op();
        });
        sim->add_process([reg](SimContext& ctx) {
          for (int i = 2; i <= 4; ++i) reg->write(ctx, i);
        });
        return sim;
      },
      [](Simulator& sim) {
        EXPECT_TRUE(sim.crashed(0));
        EXPECT_FALSE(sim.crashed(1));
        ASSERT_EQ(sim.ops().size(), 1u);
        EXPECT_FALSE(sim.ops()[0].complete);
        EXPECT_EQ(sim.steps_taken(), 4u);  // no wake: it never resumed
      },
      // Kill pid 0 once its write is in — it is then parked in await().
      [](ProcessId pid, const Simulator& sim) {
        return pid == 0 && sim.counters(0).writes == 1;
      });
  EXPECT_TRUE(stats.exhausted);
}

}  // namespace
}  // namespace scm::sim
