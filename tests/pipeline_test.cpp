// Tests for the variadic composition pipeline (core/pipeline.hpp) and
// its companion, the statically-typed Abstract chain.
//
//  * depth-1/2/4 pipelines produce bit-identical commit/abort results
//    to a hand-nested two-stage reference combinator across random
//    schedules;
//  * the consensus-number fold and the ComposableModule concept hold
//    statically (and the pipeline type is non-polymorphic — there is
//    no virtual dispatch to pay for);
//  * per-stage commit/abort statistics account for every invocation;
//  * switch values plumb through arbitrary depths, pipelines nest, and
//    rvalue modules are owned by the pipeline;
//  * a depth-3 A1∘A1∘A2 pipeline stays linearizable (Theorem 4 shape);
//  * a solo StaticAbstractChain commits everything on stage 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <type_traits>
#include <vector>

#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "fixtures.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/context.hpp"
#include "sim/schedules.hpp"
#include "sim/sim_platform.hpp"
#include "sim/simulator.hpp"
#include "tas/a1_module.hpp"
#include "tas/a2_module.hpp"
#include "universal/composable_universal.hpp"
#include "universal/static_chain.hpp"

namespace scm {
namespace {

using fixtures::SinkModule;

using sim::SimContext;
using sim::SimPlatform;
using sim::Simulator;

using A1 = ObstructionFreeTas<SimPlatform>;
using A2 = WaitFreeTas<SimPlatform>;

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

// Plumbing-only hop (no shared-memory steps, so it runs on a bare
// NativeContext) that counts its invocations.
struct HopModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;
  int invocations = 0;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    ++invocations;
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }
};

// A hop that claims CAS's consensus number, for the fold check.
struct CasNumberedHop : HopModule {
  static constexpr int kConsensusNumber = kConsensusNumberCas;
};

// ---------------------------------------------------------------------------
// Static properties

TEST(Pipeline, ConsensusNumberFoldAndConceptConformance) {
  using P2 = Pipeline<A1&, A2&>;
  static_assert(P2::kDepth == 2);
  static_assert(P2::kConsensusNumber == 2, "max(register, tas) == 2");
  using RegistersOnly = Pipeline<A1&, A1&, A1&>;
  static_assert(RegistersOnly::kDepth == 3);
  static_assert(RegistersOnly::kConsensusNumber == kConsensusNumberRegister,
                "a register-only chain folds to consensus number 1");
  using WithCas = Pipeline<A1&, CasNumberedHop&>;
  static_assert(WithCas::kConsensusNumber == kConsensusNumberCas);

  // A pipeline is itself a composable module (Theorem 2) and pays no
  // virtual dispatch anywhere.
  static_assert(ComposableModule<P2, SimContext>);
  static_assert(ComposableModule<P2, NativeContext>);
  static_assert(!std::is_polymorphic_v<P2>);
  static_assert(!std::is_polymorphic_v<FastPipeline<A1&, A2&>>);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Equivalence with a hand-nested two-stage reference

// The paper's binary composition operator spelled out by hand: run A;
// on abort, run B initialized with A's switch value. Nesting it gives
// any depth — the reference the folded pipeline must match bit for bit.
template <class A, class B>
struct TwoStage {
  static constexpr int kConsensusNumber =
      std::max(A::kConsensusNumber, B::kConsensusNumber);

  A& first;
  B& second;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& r,
                      std::optional<SwitchValue> init = std::nullopt) {
    const ModuleResult a = first.invoke(ctx, r, init);
    if (a.committed()) return a;
    return second.invoke(ctx, r, a.switch_value);
  }
};

struct RunOutcome {
  std::vector<ModuleResult> results;
  std::vector<std::uint64_t> steps;
};

template <class Chain>
RunOutcome run_tas_chain(Chain& chain, int n, std::uint64_t seed) {
  Simulator s;
  RunOutcome out;
  out.results.resize(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      out.results[static_cast<std::size_t>(p)] =
          chain.invoke(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
    });
  }
  sim::RandomSchedule sched(seed);
  s.run(sched);
  for (int p = 0; p < n; ++p) {
    out.steps.push_back(s.counters(p).total());
  }
  return out;
}

void expect_same(const RunOutcome& a, const RunOutcome& b,
                 std::uint64_t seed) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t p = 0; p < a.results.size(); ++p) {
    EXPECT_EQ(a.results[p].outcome, b.results[p].outcome)
        << "p" << p << " seed " << seed;
    EXPECT_EQ(a.results[p].response, b.results[p].response)
        << "p" << p << " seed " << seed;
    EXPECT_EQ(a.results[p].switch_value, b.results[p].switch_value)
        << "p" << p << " seed " << seed;
    EXPECT_EQ(a.steps[p], b.steps[p]) << "p" << p << " seed " << seed;
  }
}

TEST(Pipeline, Depth1MatchesBareModule) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    A1 bare;
    RunOutcome expect = run_tas_chain(bare, 3, seed);

    A1 piped;
    auto pipe = make_pipeline(piped);
    static_assert(decltype(pipe)::kDepth == 1);
    RunOutcome got = run_tas_chain(pipe, 3, seed);
    expect_same(expect, got, seed);
  }
}

TEST(Pipeline, Depth2MatchesNestedTwoStage) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    A1 ca1;
    A2 ca2;
    TwoStage<A1, A2> reference{ca1, ca2};
    RunOutcome expect = run_tas_chain(reference, 3, seed);

    A1 pa1;
    A2 pa2;
    auto pipe = make_pipeline(pa1, pa2);
    RunOutcome got = run_tas_chain(pipe, 3, seed);
    expect_same(expect, got, seed);
  }
}

TEST(Pipeline, Depth4MatchesNestedTwoStage) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    A1 ca, cb, cc;
    A2 cd;
    TwoStage<A1, A2> inner{cc, cd};
    TwoStage<A1, decltype(inner)> mid{cb, inner};
    TwoStage<A1, decltype(mid)> reference{ca, mid};
    RunOutcome expect = run_tas_chain(reference, 4, seed);

    A1 pa, pb, pc;
    A2 pd;
    auto pipe = make_pipeline(pa, pb, pc, pd);
    static_assert(decltype(pipe)::kDepth == 4);
    static_assert(decltype(pipe)::kConsensusNumber ==
                  decltype(reference)::kConsensusNumber);
    RunOutcome got = run_tas_chain(pipe, 4, seed);
    expect_same(expect, got, seed);
  }
}

// ---------------------------------------------------------------------------
// Per-stage statistics

TEST(Pipeline, PerStageStatsAccountForEveryInvocation) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    A1 a1;
    A2 a2;
    auto pipe = make_pipeline(a1, a2);
    constexpr int kN = 3;
    RunOutcome out = run_tas_chain(pipe, kN, seed);

    const PipelineStageStats s0 = pipe.stats(0);
    const PipelineStageStats s1 = pipe.stats(1);
    // Every process entered stage 0 exactly once; stage 1 saw exactly
    // the stage-0 aborts; A2 is wait-free, so nothing aborts out.
    EXPECT_EQ(s0.invocations(), static_cast<std::uint64_t>(kN));
    EXPECT_EQ(s1.invocations(), s0.aborts);
    EXPECT_EQ(s0.commits + s1.commits, static_cast<std::uint64_t>(kN));
    EXPECT_EQ(s1.aborts, 0u);
  }
}

// ---------------------------------------------------------------------------
// Switch-value plumbing, nesting, ownership

TEST(Pipeline, SwitchValuesPlumbThroughArbitraryDepth) {
  HopModule h1, h2, h3;
  SinkModule sink;
  auto pipe = make_pipeline(h1, h2, h3, sink);
  NativeContext ctx(0);

  const auto traced = pipe.invoke_traced(ctx, tas_req(1, 0));
  EXPECT_TRUE(traced.result.committed());
  EXPECT_EQ(traced.result.response, 3);  // three hops incremented it
  EXPECT_EQ(traced.stage, 3u);
  EXPECT_EQ(h1.invocations, 1);
  EXPECT_EQ(h2.invocations, 1);
  EXPECT_EQ(h3.invocations, 1);

  // An initialization value seeds the fold like an upstream abort.
  const ModuleResult seeded = pipe.invoke(ctx, tas_req(2, 0), 10);
  EXPECT_EQ(seeded.response, 13);
}

TEST(Pipeline, LastStageAbortIsWholePipelineAbort) {
  HopModule h1, h2;
  auto pipe = make_pipeline(h1, h2);
  NativeContext ctx(0);

  const auto traced = pipe.invoke_traced(ctx, tas_req(1, 0));
  EXPECT_FALSE(traced.result.committed());
  EXPECT_EQ(traced.result.switch_value, 2);
  EXPECT_EQ(traced.stage, 1u);
  EXPECT_EQ(pipe.stats(0).aborts, 1u);
  EXPECT_EQ(pipe.stats(1).aborts, 1u);
}

TEST(Pipeline, PipelinesNest) {
  // Theorem 2 applied twice: a pipeline is a module, so it can be a
  // stage of another pipeline.
  HopModule h1, h2;
  SinkModule sink;
  auto inner = make_pipeline(h1, h2);  // aborts with hop count 2
  auto outer = make_pipeline(inner, sink);
  static_assert(decltype(outer)::kDepth == 2);
  NativeContext ctx(0);

  const ModuleResult r = outer.invoke(ctx, tas_req(1, 0));
  EXPECT_TRUE(r.committed());
  EXPECT_EQ(r.response, 2);

  // The rvalue spelling works too: the inner pipeline moves into the
  // outer one (stats counters are snapshot-copied on move).
  HopModule h3, h4;
  SinkModule sink2;
  auto nested = make_pipeline(make_pipeline(h3, h4), sink2);
  EXPECT_EQ(nested.invoke(ctx, tas_req(2, 0)).response, 2);
  EXPECT_EQ(nested.stats(0).aborts, 1u);   // the whole inner pipeline
  EXPECT_EQ(nested.stats(1).commits, 1u);  // the sink
}

TEST(Pipeline, RvalueModulesAreOwned) {
  // Rvalues move into the pipeline; lvalues stay referenced. The owned
  // copy is reachable through stage<I>() for inspection.
  SinkModule shared_sink;
  auto pipe = make_pipeline(HopModule{}, shared_sink);
  static_assert(
      std::is_same_v<decltype(pipe), Pipeline<HopModule, SinkModule&>>);
  NativeContext ctx(0);

  EXPECT_EQ(pipe.invoke(ctx, tas_req(1, 0)).response, 1);
  EXPECT_EQ(pipe.invoke(ctx, tas_req(2, 0)).response, 1);
  EXPECT_EQ(pipe.stage<0>().invocations, 2);

  // All-owned pipelines of default-constructible modules need no
  // externally owned modules at all.
  Pipeline<HopModule, SinkModule> owned;
  EXPECT_EQ(owned.invoke(ctx, tas_req(3, 0)).response, 1);
}

// ---------------------------------------------------------------------------
// Linearizability of a depth-3 pipeline (Section 6.3 shape)

TEST(Pipeline, Depth3TasPipelineStaysLinearizable) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    A1 first, second;
    A2 last;
    auto chain = make_pipeline(first, second, last);

    std::vector<ModuleResult> rs(kN);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        ctx.begin_op();
        rs[static_cast<std::size_t>(p)] =
            chain.invoke(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
        ctx.end_op(rs[static_cast<std::size_t>(p)].response);
      });
    }
    sim::RandomSchedule sched(seed * 23 + 7);
    s.run(sched);

    int winners = 0;
    for (const auto& r : rs) {
      ASSERT_TRUE(r.committed()) << "seed " << seed;
      if (r.response == TasSpec::kWinner) ++winners;
    }
    EXPECT_EQ(winners, 1) << "seed " << seed;

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

// ---------------------------------------------------------------------------
// StaticAbstractChain

TEST(StaticChain, SoloRunsCommitOnStageZero) {
  using SplitStage = ComposableUniversal<SimPlatform, CounterSpec,
                                         SplitConsensus<SimPlatform>, 48>;
  using CasStage = ComposableUniversal<SimPlatform, CounterSpec,
                                       CasConsensus<SimPlatform>, 48>;
  SplitStage split(1, 48, "split");
  CasStage cas(1, 48, "cas");
  StaticAbstractChain chain(1, split, cas);

  Simulator s;
  std::vector<Response> got;
  s.add_process([&](SimContext& ctx) {
    for (int i = 0; i < 5; ++i) {
      const auto r = chain.perform(
          ctx, Request{static_cast<std::uint64_t>(i) + 1, 0,
                       CounterSpec::kFetchInc, 0});
      EXPECT_EQ(r.stage, 0u);
      got.push_back(r.response);
    }
  });
  sim::SequentialSchedule sched;
  s.run(sched);

  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(chain.commits_by(0, 0), 5u);
  EXPECT_EQ(chain.commits_by(0, 1), 0u);
  EXPECT_STREQ(chain.stage_name(0), "split");
}

}  // namespace
}  // namespace scm
