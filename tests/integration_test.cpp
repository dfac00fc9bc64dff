// Cross-module integration and remaining-surface tests:
//  * the biased lock (mutual exclusion, owner fast path, round flow);
//  * A1 composed with itself (Section 6.3: "module A1 can also be
//    composed with itself") and deeper chains via the variadic
//    pipeline combinator;
//  * trace recorder ordering;
//  * schedule policies' behavioural contracts;
//  * crash injection through the full universal chain.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "core/interpretation.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "core/trace.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "sim/schedules.hpp"
#include "sim/sim_platform.hpp"
#include "sim/simulator.hpp"
#include "tas/a1_module.hpp"
#include "tas/a2_module.hpp"
#include "tas/biased_lock.hpp"
#include "tas/speculative_tas.hpp"
#include "universal/composable_universal.hpp"
#include "universal/static_chain.hpp"

namespace scm {
namespace {

using sim::SimContext;
using sim::SimPlatform;
using sim::Simulator;

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

// ---------------------------------------------------------------------------
// BiasedLock

TEST(BiasedLock, MutualExclusionUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    constexpr int kAcquires = 3;
    BiasedLock<SimPlatform> lock(kN, 256, /*recycle=*/false);
    int in_critical = 0;
    int max_in_critical = 0;
    long shared_counter = 0;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&](SimContext& ctx) {
        for (int i = 0; i < kAcquires; ++i) {
          lock.lock(ctx);
          ++in_critical;
          max_in_critical = std::max(max_in_critical, in_critical);
          ++shared_counter;  // protected update
          --in_critical;
          lock.unlock(ctx);
        }
      });
    }
    // Random schedule so the holder always eventually runs.
    sim::RandomSchedule sched(seed * 31 + 5);
    s.run(sched);
    EXPECT_FALSE(s.hit_step_limit()) << "seed " << seed;
    EXPECT_EQ(max_in_critical, 1) << "mutual exclusion violated, seed " << seed;
    EXPECT_EQ(shared_counter, kN * kAcquires);
  }
}

TEST(BiasedLock, OwnerFastPathUsesNoRmw) {
  Simulator s;
  BiasedLock<SimPlatform> lock(1, 64, /*recycle=*/true);
  s.add_process([&](SimContext& ctx) {
    for (int i = 0; i < 20; ++i) {
      lock.lock(ctx);
      lock.unlock(ctx);
    }
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_EQ(s.counters(0).rmws, 0u);
  EXPECT_EQ(lock.rounds_played(), 20u);
}

TEST(BiasedLock, StepsPerUncontendedAcquireConstant) {
  auto steps_for = [](int acquires) {
    Simulator s;
    BiasedLock<SimPlatform> lock(1, 128, /*recycle=*/true);
    s.add_process([&](SimContext& ctx) {
      for (int i = 0; i < acquires; ++i) {
        lock.lock(ctx);
        lock.unlock(ctx);
      }
    });
    sim::SequentialSchedule sched;
    s.run(sched);
    return static_cast<double>(s.counters(0).total()) / acquires;
  };
  // Per-acquire cost must not grow with the number of rounds played.
  EXPECT_NEAR(steps_for(8), steps_for(64), 1.0);
}

// ---------------------------------------------------------------------------
// Composition combinator chains

TEST(PipelineChain, A1WithItselfThenHardwareIsCorrect) {
  // Section 6.3: "module A1 can also be composed with itself". Build
  // A1 ∘ A1 ∘ A2 via the variadic pipeline and check TAS safety
  // across schedules.
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    ObstructionFreeTas<SimPlatform> first;
    ObstructionFreeTas<SimPlatform> second;
    WaitFreeTas<SimPlatform> final_stage;
    auto chain = make_pipeline(first, second, final_stage);
    static_assert(decltype(chain)::kConsensusNumber == 2);
    static_assert(decltype(chain)::kDepth == 3);

    std::vector<ModuleResult> rs(kN);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        ctx.begin_op();
        rs[p] = chain.invoke(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
        ctx.end_op(rs[p].response);
      });
    }
    sim::RandomSchedule sched(seed * 17 + 9);
    s.run(sched);
    int winners = 0;
    for (const auto& r : rs) {
      ASSERT_TRUE(r.committed());  // the chain ends wait-free
      if (r.response == TasSpec::kWinner) ++winners;
    }
    ASSERT_EQ(winners, 1) << "seed " << seed;

    std::vector<ConcurrentOp> ops;
    for (const auto& rec : s.ops()) {
      ConcurrentOp op;
      op.pid = rec.pid;
      op.request = tas_req(static_cast<std::uint64_t>(rec.pid) + 1, rec.pid);
      op.response = rec.output;
      op.invoke = rec.invoke_event;
      op.ret = rec.response_event;
      op.completed = rec.complete;
      ops.push_back(op);
    }
    ASSERT_TRUE(linearizable<TasSpec>(std::move(ops))) << "seed " << seed;
  }
}

TEST(PipelineChain, SoloPathNeverReachesSecondModule) {
  Simulator s;
  ObstructionFreeTas<SimPlatform> a1;
  WaitFreeTas<SimPlatform> a2;
  auto chain = make_pipeline(a1, a2);
  ModuleResult r;
  s.add_process([&](SimContext& ctx) { r = chain.invoke(ctx, tas_req(1, 0)); });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_TRUE(r.committed());
  EXPECT_EQ(r.response, TasSpec::kWinner);
  EXPECT_EQ(s.counters(0).rmws, 0u);  // A2's hardware untouched
}

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceRecorder, AssignsMonotoneSequence) {
  TraceRecorder rec;
  const Request r1 = tas_req(1, 0), r2 = tas_req(2, 1);
  rec.invoke(0, r1);
  rec.invoke(1, r2);
  rec.commit(0, r1, TasSpec::kWinner);
  rec.abort(1, r2, TasConstraint::kL);
  const Trace t = rec.trace();
  ASSERT_EQ(t.size(), 4u);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LT(t.events()[i - 1].seq, t.events()[i].seq);
  }
  EXPECT_EQ(t.abort_tokens().size(), 1u);
  EXPECT_EQ(t.abort_tokens()[0].value, TasConstraint::kL);
  rec.clear();
  EXPECT_TRUE(rec.trace().empty());
}

TEST(TraceRecorder, ProjectionKeepsPerProcessOrder) {
  TraceRecorder rec;
  const Request r1 = tas_req(1, 0), r2 = tas_req(2, 1);
  rec.invoke(0, r1);
  rec.invoke(1, r2);
  rec.commit(1, r2, TasSpec::kWinner);
  rec.commit(0, r1, TasSpec::kLoser);
  const Trace p0 = rec.trace().project(0);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_EQ(p0.events()[0].kind, EventKind::kInvoke);
  EXPECT_EQ(p0.events()[1].kind, EventKind::kCommit);
}

// ---------------------------------------------------------------------------
// Schedule policy contracts

TEST(Schedules, SoloScheduleRunsHeroToCompletionFirst) {
  Simulator s;
  sim::SimPlatform::Register<int> reg(0);
  std::vector<int> finish_order;
  for (int p = 0; p < 3; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      for (int i = 0; i < 3; ++i) (void)reg.read(ctx);
      finish_order.push_back(p);
    });
  }
  sim::SoloSchedule sched(/*hero=*/2);
  s.run(sched);
  ASSERT_EQ(finish_order.size(), 3u);
  EXPECT_EQ(finish_order[0], 2);
}

TEST(Schedules, StickyRandomWithStickinessOneIsSequentialPerOp) {
  Simulator s;
  sim::SimPlatform::Register<int> reg(0);
  for (int p = 0; p < 3; ++p) {
    s.add_process([&](SimContext& ctx) {
      ctx.begin_op();
      for (int i = 0; i < 4; ++i) (void)reg.read(ctx);
      ctx.end_op();
    });
  }
  sim::StickyRandomSchedule sched(3, 1.0);
  s.run(sched);
  for (const auto& op : s.ops()) {
    EXPECT_FALSE(s.op_has_step_contention(op));
  }
}

TEST(Schedules, RoundRobinQuantumControlsInterleavingGranularity) {
  auto contention_with_quantum = [](std::uint64_t quantum) {
    Simulator s;
    sim::SimPlatform::Register<int> reg(0);
    for (int p = 0; p < 2; ++p) {
      s.add_process([&](SimContext& ctx) {
        ctx.begin_op();
        for (int i = 0; i < 4; ++i) (void)reg.read(ctx);
        ctx.end_op();
      });
    }
    sim::RoundRobinSchedule sched(quantum);
    s.run(sched);
    int contended = 0;
    for (const auto& op : s.ops()) {
      if (s.op_has_step_contention(op)) ++contended;
    }
    return contended;
  };
  EXPECT_GT(contention_with_quantum(1), 0);
  // A quantum covering the whole op (4 steps + startup) removes overlap.
  EXPECT_EQ(contention_with_quantum(64), 0);
}

// ---------------------------------------------------------------------------
// Crash injection through the universal chain

TEST(StaticChain, SurvivorsStayCorrectUnderCrashes) {
  using SplitStage = ComposableUniversal<SimPlatform, CounterSpec,
                                         SplitConsensus<SimPlatform>, 48>;
  using CasStage = ComposableUniversal<SimPlatform, CounterSpec,
                                       CasConsensus<SimPlatform>, 48>;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    constexpr int kN = 4;
    SplitStage split(kN, 48, "split");
    CasStage cas(kN, 48, "cas");
    StaticAbstractChain chain(kN, split, cas);

    Simulator s;
    std::vector<std::vector<Response>> got(kN);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        for (int i = 0; i < 2; ++i) {
          const auto id = static_cast<std::uint64_t>(p) * 100 +
                          static_cast<std::uint64_t>(i) + 1;
          got[p].push_back(
              chain.perform(ctx, Request{id, p, CounterSpec::kFetchInc, 0})
                  .response);
        }
      });
    }
    sim::RandomSchedule inner(seed);
    sim::RandomCrashSchedule sched(inner, seed ^ 0xbeef, 0.05, 1);
    s.run(sched);
    // Survivors' responses must be distinct (no duplicated counter
    // values), and crashed processes may leave gaps.
    std::set<Response> all;
    std::size_t completed = 0;
    for (const auto& rs : got) {
      for (Response r : rs) {
        EXPECT_TRUE(all.insert(r).second)
            << "duplicate fetch&inc " << r << " (seed " << seed << ")";
        ++completed;
      }
    }
    EXPECT_EQ(all.size(), completed);
  }
}

// ---------------------------------------------------------------------------
// Module result helpers

TEST(ModuleResult, FactoryHelpers) {
  const ModuleResult c = ModuleResult::commit(7);
  EXPECT_TRUE(c.committed());
  EXPECT_EQ(c.response, 7);
  const ModuleResult a = ModuleResult::abort_with(3);
  EXPECT_FALSE(a.committed());
  EXPECT_EQ(a.switch_value, 3);
}

TEST(ConsensusResult, FactoryHelpers) {
  const ConsensusResult c = ConsensusResult::commit(9);
  EXPECT_TRUE(c.committed());
  EXPECT_EQ(c.value, 9);
  const ConsensusResult a = ConsensusResult::abort_with(kBottom);
  EXPECT_FALSE(a.committed());
}

}  // namespace
}  // namespace scm
