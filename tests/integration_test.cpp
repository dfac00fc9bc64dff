// Cross-module integration and remaining-surface tests:
//  * the biased lock (mutual exclusion, owner fast path, round flow);
//  * A1 composed with itself (Section 6.3: "module A1 can also be
//    composed with itself") and deeper chains via the variadic
//    pipeline combinator;
//  * trace recorder ordering;
//  * schedule policies' behavioural contracts;
//  * crash injection through the full universal chain;
//  * one algorithm object, or one composition stack, counts the same
//    steps natively and under the simulator.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "consensus/abortable_bakery.hpp"
#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "core/caching.hpp"
#include "core/combining.hpp"
#include "core/interpretation.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "core/trace.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/platform.hpp"
#include "shm/shm_combining.hpp"
#include "shm/shm_counter.hpp"
#include "sim/schedules.hpp"
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
    BiasedLock<> lock(kN, 256, /*recycle=*/false);
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
  BiasedLock<> lock(1, 64, /*recycle=*/true);
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
    BiasedLock<> lock(1, 128, /*recycle=*/true);
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
    ObstructionFreeTas<> first;
    ObstructionFreeTas<> second;
    WaitFreeTas final_stage;
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
  ObstructionFreeTas<> a1;
  WaitFreeTas a2;
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
  NativeRegister<int> reg(0);
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
  NativeRegister<int> reg(0);
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
    NativeRegister<int> reg(0);
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
  using SplitStage = ComposableUniversal<CounterSpec, SplitConsensus, 48>;
  using CasStage = ComposableUniversal<CounterSpec, CasConsensus, 48>;
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
// One object, both contexts: each algorithm is one type, and a solo op
// on a fresh instance counts the same steps whether NativeContext or
// SimContext drives it. This ties the simulator's step and RMW claims
// (E1, E4) to the code the native benches run.

template <class Obj>
std::unique_ptr<Obj> fresh_solo_object() {
  if constexpr (std::is_constructible_v<Obj, int>) {
    return std::make_unique<Obj>(1);
  } else {
    return std::make_unique<Obj>();
  }
}

// The paper's objects: one solo op each.
template <class Obj, std::uint64_t kSoloRmws>
struct SoloCase {
  using Type = Obj;
  static constexpr std::uint64_t kRmws = kSoloRmws;

  template <class Ctx>
  static void op(Obj& obj, Ctx& ctx) {
    if constexpr (requires { obj.run(ctx, kBottom, std::int64_t{7}); }) {
      (void)obj.run(ctx, kBottom, 7);
    } else {
      (void)obj.invoke(ctx, tas_req(1, 0));
    }
  }
};

// Composition stacks, so the slot protocol's and the cache's counted
// accesses are tied to both contexts too. A solo op runs direct: the
// election gate's CAS is the one RMW Combining adds, and A1 commits
// with registers alone.
struct CombinedPipelineCase {
  using Type = Combining<Pipeline<ObstructionFreeTas<>, WaitFreeTas>, 4>;
  static constexpr std::uint64_t kRmws = 1;

  template <class Ctx>
  static void op(Type& obj, Ctx& ctx) {
    EXPECT_EQ(obj.invoke(ctx, tas_req(1, 0)).response, TasSpec::kWinner);
  }
};

#if SCM_HAS_POSIX_SHM
// The gate's CAS and the counter's fetch_add.
struct ShmCombinedCounterCase {
  using Type = ShmCombining<ShmCounter, 4>;
  static constexpr std::uint64_t kRmws = 2;

  template <class Ctx>
  static void op(Type& obj, Ctx& ctx) {
    const Request inc{1, 0, CounterSpec::kFetchInc, 0};
    EXPECT_EQ(obj.invoke(ctx, inc).response, 0);
  }
};
#endif

// One counter key: a read is served by the cache once a fill put it
// there, and a write's response + 1 is the value after it.
struct CounterReadModel {
  static bool is_read(const Request& m) { return m.op == CounterSpec::kRead; }
  static std::uint64_t key(const Request& /*m*/) { return 0; }
  static std::optional<Response> read_after_write(const Request& /*m*/,
                                                  Response r) {
    return r + 1;
  }
};

// A read that misses, then one that hits. The miss reads the slot
// generation, the replica entry and the slot line's `last` (3 reads),
// then goes through Combining (the gate's CAS) to the counter (1 read);
// its fill callback installs uncounted. The hit reads the generation
// and the entry (2 reads).
struct CachedMissThenHitCase {
  using Type = Cached<Combining<ShmCounter, 4>, CounterReadModel>;
  static constexpr std::uint64_t kRmws = 1;
  static constexpr std::uint64_t kReads = 6;

  template <class Ctx>
  static void op(Type& obj, Ctx& ctx) {
    const Request read{1, 0, CounterSpec::kRead, 0};
    EXPECT_EQ(obj.invoke(ctx, read).response, 0);
    EXPECT_EQ(obj.invoke(ctx, read).response, 0);
    EXPECT_EQ(obj.hits(), 1u);
  }
};

template <class Case>
class OneObjectBothContexts : public testing::Test {};

using SoloCases =
    testing::Types<SoloCase<ObstructionFreeTas<>, 0>, SoloCase<WaitFreeTas, 1>,
                   SoloCase<SpeculativeTas<>, 0>, SoloCase<SoloFastTas, 0>,
                   SoloCase<SplitConsensus, 0>, SoloCase<AbortableBakery, 0>,
                   SoloCase<CasConsensus, 1>, CombinedPipelineCase,
#if SCM_HAS_POSIX_SHM
                   ShmCombinedCounterCase,
#endif
                   CachedMissThenHitCase>;
TYPED_TEST_SUITE(OneObjectBothContexts, SoloCases);

TYPED_TEST(OneObjectBothContexts, SoloOpCountsTheSameSteps) {
  using Obj = typename TypeParam::Type;

  NativeContext native(0);
  TypeParam::op(*fresh_solo_object<Obj>(), native);

  Simulator s;
  const auto simulated = fresh_solo_object<Obj>();
  s.add_process([&](SimContext& ctx) { TypeParam::op(*simulated, ctx); });
  sim::SequentialSchedule sched;
  s.run(sched);

  const StepCounters& n = native.counters();
  const StepCounters& m = s.counters(0);
  EXPECT_GT(n.total(), 0u);
  EXPECT_EQ(n.reads, m.reads);
  EXPECT_EQ(n.writes, m.writes);
  EXPECT_EQ(n.rmws, m.rmws);
  EXPECT_EQ(n.rmws, TypeParam::kRmws);
  if constexpr (requires { TypeParam::kReads; }) {
    EXPECT_EQ(n.reads, TypeParam::kReads);
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
