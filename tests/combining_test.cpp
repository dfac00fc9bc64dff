// Tests for the batch invocation path (core/batch.hpp, the pipeline's
// stage-major invoke_batch) and the flat-combining combinator
// (core/combining.hpp):
//
//  * run_batch falls back to the per-op loop for plain modules and
//    dispatches to a module's own batch path when it has one;
//  * Pipeline::invoke_batch is result- and stats-identical to invoking
//    the slots in order, across commit/abort mixes, seeded inits,
//    whole-pipeline aborts, FastPipeline, and nested pipeline stages;
//  * Combining satisfies ComposableModule, folds TAS into the
//    consensus number, nests inside Sharded, and a solo stream through
//    it is bit-identical to direct invocation (each op combining
//    itself) — for pipelines and for a StaticAbstractChain, whose
//    Combining and Sharded wrappers answer invoke() with the bare
//    chain's perform() responses and commit tallies;
//  * under real threads (the "tsan" ctest label runs this suite under
//    ThreadSanitizer) every combined op draws a distinct ticket and
//    the recorded concurrent history linearizes against CounterSpec —
//    the batched execution path preserves the per-op semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "core/batch.hpp"
#include "core/combining.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "core/sharding.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/context.hpp"
#include "runtime/platform.hpp"
#include "support/rng.hpp"
#include "universal/composable_universal.hpp"
#include "universal/static_chain.hpp"
#include "workload/driver.hpp"

namespace scm {
namespace {


// Plumbing-only helpers, as in pipeline_test.
struct HopModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }
};

struct SinkModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    return ModuleResult::commit(init.value_or(0));
  }
};

// Commits exactly the requests whose arg equals this stage's index
// (response encodes the inherited fold and the serving stage), aborts
// the rest onward — a deterministic commit/abort mix per batch.
struct StageGate {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;
  std::size_t my_stage = 0;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    if (static_cast<std::size_t>(m.arg) == my_stage) {
      return ModuleResult::commit(init.value_or(0) * 10 +
                                  static_cast<Response>(my_stage));
    }
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }
};

// Fetch&inc semantics (CounterSpec): commits a unique monotone ticket.
struct TicketModule {
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    return ModuleResult::commit(static_cast<Response>(count_.fetch_add(ctx)));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

Request arg_req(std::uint64_t id, ProcessId p, std::int64_t arg) {
  return Request{id, p, 0, arg};
}

// ---------------------------------------------------------------------------
// run_batch dispatch

TEST(Batch, RunBatchFallsBackToPerOpLoopForPlainModules) {
  static_assert(!BatchInvocable<SinkModule, NativeContext>);
  SinkModule sink;
  NativeContext ctx(0);
  std::array<OpSlot, 3> batch{
      OpSlot{arg_req(1, 0, 0), std::nullopt, {}, false},
      OpSlot{arg_req(2, 0, 0), SwitchValue{7}, {}, false},
      OpSlot{arg_req(3, 0, 0), SwitchValue{-2}, {}, false}};
  run_batch(sink, ctx, std::span<OpSlot>(batch));
  EXPECT_TRUE(batch[0].done && batch[1].done && batch[2].done);
  EXPECT_EQ(batch[0].result.response, 0);
  EXPECT_EQ(batch[1].result.response, 7);
  EXPECT_EQ(batch[2].result.response, -2);
}

TEST(Batch, RunBatchDispatchesToAModulesOwnBatchPath) {
  using Pipe = Pipeline<HopModule, SinkModule>;
  static_assert(BatchInvocable<Pipe, NativeContext>);
  Pipe pipe;
  NativeContext ctx(0);
  std::array<OpSlot, 2> batch{
      OpSlot{arg_req(1, 0, 0), std::nullopt, {}, false},
      OpSlot{arg_req(2, 0, 0), SwitchValue{5}, {}, false}};
  run_batch(pipe, ctx, std::span<OpSlot>(batch));
  EXPECT_EQ(batch[0].result.response, 1);  // one hop
  EXPECT_EQ(batch[1].result.response, 6);  // seeded init + one hop
  // Bulk stats: one batch accounted exactly two ops per stage.
  EXPECT_EQ(pipe.stats(0).aborts, 2u);
  EXPECT_EQ(pipe.stats(1).commits, 2u);
}

// ---------------------------------------------------------------------------
// Pipeline::invoke_batch equivalence with per-op invocation

template <class Pipe>
std::vector<ModuleResult> drive_per_op(Pipe& pipe,
                                       const std::vector<OpSlot>& slots) {
  NativeContext ctx(0);
  std::vector<ModuleResult> out;
  out.reserve(slots.size());
  for (const OpSlot& s : slots) {
    out.push_back(pipe.invoke(ctx, s.request, s.init));
  }
  return out;
}

std::vector<OpSlot> random_slots(std::uint64_t seed, std::size_t n,
                                 std::int64_t max_arg) {
  Rng rng(seed);
  std::vector<OpSlot> slots;
  slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    OpSlot s;
    s.request = arg_req(i + 1, 0,
                        static_cast<std::int64_t>(rng.below(
                            static_cast<std::uint64_t>(max_arg) + 1)));
    if (rng.chance(0.5)) s.init = static_cast<SwitchValue>(rng.below(5));
    slots.push_back(s);
  }
  return slots;
}

TEST(Batch, PipelineBatchMatchesPerOpAcrossCommitAbortMixes) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    // arg in [0, 4]: commits at stage arg for arg < 3, whole-pipeline
    // abort (switch value = inherited + 3 hops) for arg >= 3.
    std::vector<OpSlot> slots = random_slots(seed, 17, 4);

    Pipeline<StageGate, StageGate, StageGate> per_op(
        StageGate{0}, StageGate{1}, StageGate{2});
    const std::vector<ModuleResult> expect = drive_per_op(per_op, slots);

    Pipeline<StageGate, StageGate, StageGate> batched(
        StageGate{0}, StageGate{1}, StageGate{2});
    NativeContext ctx(0);
    batched.invoke_batch(ctx, std::span<OpSlot>(slots));

    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_TRUE(slots[i].done) << "slot " << i << " seed " << seed;
      EXPECT_EQ(slots[i].result.outcome, expect[i].outcome)
          << "slot " << i << " seed " << seed;
      EXPECT_EQ(slots[i].result.response, expect[i].response)
          << "slot " << i << " seed " << seed;
      EXPECT_EQ(slots[i].result.switch_value, expect[i].switch_value)
          << "slot " << i << " seed " << seed;
    }
    // Stats: the bulk per-stage updates equal the per-op tallies.
    for (std::size_t st = 0; st < 3; ++st) {
      EXPECT_EQ(batched.stats(st).commits, per_op.stats(st).commits)
          << "stage " << st << " seed " << seed;
      EXPECT_EQ(batched.stats(st).aborts, per_op.stats(st).aborts)
          << "stage " << st << " seed " << seed;
    }
  }
}

TEST(Batch, FastPipelineBatchMatchesPerOp) {
  std::vector<OpSlot> slots = random_slots(7, 11, 4);
  FastPipeline<StageGate, StageGate, StageGate> per_op(
      StageGate{0}, StageGate{1}, StageGate{2});
  const std::vector<ModuleResult> expect = drive_per_op(per_op, slots);

  FastPipeline<StageGate, StageGate, StageGate> batched(
      StageGate{0}, StageGate{1}, StageGate{2});
  NativeContext ctx(0);
  batched.invoke_batch(ctx, std::span<OpSlot>(slots));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].result.outcome, expect[i].outcome) << i;
    EXPECT_EQ(slots[i].result.response, expect[i].response) << i;
    EXPECT_EQ(slots[i].result.switch_value, expect[i].switch_value) << i;
  }
}

TEST(Batch, NestedPipelineStageReceivesItsLiveSlotsAsASubBatch) {
  // Outer stage 0 is itself a pipeline (so the gather/scatter branch
  // of batch_from runs); the sink commits whatever aborts out of it.
  const auto make = [] {
    return make_pipeline(make_pipeline(StageGate{0}, StageGate{1}),
                         SinkModule{});
  };
  std::vector<OpSlot> slots = random_slots(13, 9, 3);

  auto per_op = make();
  const std::vector<ModuleResult> expect = drive_per_op(per_op, slots);

  auto batched = make();
  NativeContext ctx(0);
  batched.invoke_batch(ctx, std::span<OpSlot>(slots));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].result.outcome, expect[i].outcome) << i;
    EXPECT_EQ(slots[i].result.response, expect[i].response) << i;
    EXPECT_EQ(slots[i].result.switch_value, expect[i].switch_value) << i;
  }
  for (std::size_t st = 0; st < 2; ++st) {
    EXPECT_EQ(batched.stats(st).commits, per_op.stats(st).commits) << st;
    EXPECT_EQ(batched.stats(st).aborts, per_op.stats(st).aborts) << st;
  }
}

TEST(Batch, EmptyBatchIsANoOp) {
  Pipeline<HopModule, SinkModule> pipe;
  NativeContext ctx(0);
  pipe.invoke_batch(ctx, std::span<OpSlot>{});
  EXPECT_EQ(pipe.stats(0).invocations(), 0u);
  EXPECT_EQ(pipe.stats(1).invocations(), 0u);
}

// ---------------------------------------------------------------------------
// Combining: static properties and solo equivalence

TEST(Combining, IsAComposableModuleAndFoldsTasIntoTheConsensusNumber) {
  using Pipe = Pipeline<HopModule, SinkModule>;
  using C = Combining<Pipe, 8>;
  static_assert(C::kSlotCount == 8);
  static_assert(C::kDepth == Pipe::kDepth);
  // The wrapper adds a TAS-elected combiner lock on top of the
  // register-only pipeline.
  static_assert(Pipe::kConsensusNumber == kConsensusNumberRegister);
  static_assert(C::kConsensusNumber == kConsensusNumberTas);
  static_assert(ComposableModule<C, NativeContext>);
  static_assert(!std::is_polymorphic_v<C>);

  // Per-shard combiners: Combining nests inside Sharded and the result
  // is still a module.
  using PerShard = Sharded<Combining<Pipe, 4>, 2, ByThread>;
  static_assert(ComposableModule<PerShard, NativeContext>);
  static_assert(PerShard::kConsensusNumber == kConsensusNumberTas);
  SUCCEED();
}

TEST(Combining, SoloStreamIsIdenticalToDirectInvocation) {
  using Pipe = Pipeline<HopModule, TicketModule>;
  Pipe direct;
  Combining<Pipe, 4> combined;
  NativeContext ctx(0);

  for (std::uint64_t i = 0; i < 50; ++i) {
    const ModuleResult a = direct.invoke(ctx, arg_req(i + 1, 0, 0));
    const ModuleResult b = combined.invoke(ctx, arg_req(i + 1, 0, 0));
    ASSERT_TRUE(a.committed());
    ASSERT_TRUE(b.committed());
    EXPECT_EQ(a.response, b.response) << "op " << i;
  }
  // Solo, the lock is always free: every op took the direct fast path
  // and no publication round ever formed.
  EXPECT_EQ(combined.direct_ops(), 50u);
  EXPECT_EQ(combined.combine_rounds(), 0u);
  EXPECT_EQ(combined.combined_ops(), 0u);
  // Forwarded stats account for every op despite the batched updates.
  EXPECT_EQ(combined.stats(0).aborts, 50u);
  EXPECT_EQ(combined.stats(1).commits, 50u);
  combined.reset_stats();
  EXPECT_EQ(combined.stats(1).invocations(), 0u);
}

TEST(Combining, WrappedChainInvokeMatchesBarePerformSolo) {
  using SplitStage = ComposableUniversal<NativePlatform, CounterSpec,
                                         SplitConsensus<NativePlatform>, 32>;
  using CasStage = ComposableUniversal<NativePlatform, CounterSpec,
                                       CasConsensus<NativePlatform>, 32>;
  using Chain = StaticAbstractChain<SplitStage, CasStage>;
  static_assert(Composable<Chain, NativeContext>);

  constexpr int kN = 1;  // named: forward_as_tuple holds references
  SplitStage split_a(kN, 32, "a"), split_b(kN, 32, "b"), split_c(kN, 32, "c");
  CasStage cas_a(kN, 32, "a"), cas_b(kN, 32, "b"), cas_c(kN, 32, "c");
  Chain bare(kN, split_a, cas_a);
  Combining<Chain, 4> combined(std::in_place, kN, split_b, cas_b);
  Sharded<Chain, 2, ByThread> sharded(std::in_place, [&](std::size_t) {
    return std::forward_as_tuple(kN, split_c, cas_c);
  });
  EXPECT_EQ(combined.consensus_number(), kConsensusNumberCas);

  NativeContext ctx(0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const Request m{i + 1, 0, CounterSpec::kFetchInc, 0};
    const Response want = bare.perform(ctx, m).response;
    const ModuleResult via_combining = combined.invoke(ctx, m);
    const ModuleResult via_sharding = sharded.invoke(ctx, m);
    ASSERT_TRUE(via_combining.committed());
    ASSERT_TRUE(via_sharding.committed());
    EXPECT_EQ(via_combining.response, want) << "op " << i;
    EXPECT_EQ(via_sharding.response, want) << "op " << i;
  }
  for (std::size_t st = 0; st < Chain::kDepth; ++st) {
    EXPECT_EQ(combined.commits_by(0, st), bare.commits_by(0, st)) << st;
    EXPECT_EQ(sharded.commits_by(0, st), bare.commits_by(0, st)) << st;
  }
  EXPECT_EQ(bare.commits_by(0, 0), 8u);  // solo: stage 0 served all
}

TEST(Combining, InvokeBatchRunsTheWholeBatchUnderOneElection) {
  // Combining is itself BatchInvocable: a caller-provided batch (e.g.
  // a per-shard sub-batch built by Sharded::invoke_batch) is executed
  // under ONE combiner election through the wrapped object's batch
  // path — not one publication round trip per op — with results
  // identical to invoking the slots in order.
  using Pipe = Pipeline<StageGate, StageGate, StageGate>;
  static_assert(BatchInvocable<Combining<Pipe, 4>, NativeContext>);

  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    std::vector<OpSlot> slots = random_slots(seed, 11, 4);

    Pipe per_op(StageGate{0}, StageGate{1}, StageGate{2});
    const std::vector<ModuleResult> expect = drive_per_op(per_op, slots);

    Combining<Pipe, 4> combined(
        std::in_place, StageGate{0}, StageGate{1}, StageGate{2});
    NativeContext ctx(0);
    combined.invoke_batch(ctx, std::span<OpSlot>(slots));

    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_TRUE(slots[i].done) << "slot " << i << " seed " << seed;
      EXPECT_EQ(slots[i].result.outcome, expect[i].outcome) << i;
      EXPECT_EQ(slots[i].result.response, expect[i].response) << i;
      EXPECT_EQ(slots[i].result.switch_value, expect[i].switch_value) << i;
    }
    // The whole batch counted as direct (no publication round trips).
    EXPECT_EQ(combined.direct_ops(), slots.size());
    EXPECT_EQ(combined.combined_ops(), 0u);
  }
}

TEST(Combining, ShardedInvokeBatchHandsPerShardCombinersRealBatches) {
  // The composition the grouping exists for: Sharded::invoke_batch
  // builds per-shard sub-batches and run_batch dispatches them through
  // each shard's Combining::invoke_batch — so a solo batch drive shows
  // every op on the combiner's direct batch path, zero publications.
  Sharded<Combining<Pipeline<HopModule, TicketModule>, 4>, 2, ByKeyHash>
      sharded;
  NativeContext ctx(0);

  std::vector<OpSlot> slots;
  for (std::uint64_t i = 0; i < 12; ++i) {
    slots.push_back(OpSlot{arg_req(i + 1, 0, static_cast<std::int64_t>(i)),
                           std::nullopt,
                           {},
                           false});
  }
  sharded.invoke_batch(ctx, std::span<OpSlot>(slots));

  std::uint64_t direct = 0, combined = 0, sink = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    direct += sharded.shard(s).direct_ops();
    combined += sharded.shard(s).combined_ops();
    sink += sharded.shard(s).object().stage<1>().count();
  }
  EXPECT_EQ(sink, slots.size());
  EXPECT_EQ(direct, slots.size());
  EXPECT_EQ(combined, 0u);
  for (const OpSlot& s : slots) {
    EXPECT_TRUE(s.done);
    EXPECT_TRUE(s.result.committed());
  }
}

TEST(Combining, SeededInitsPlumbThroughThePublicationSlot) {
  Combining<Pipeline<HopModule, SinkModule>, 2> combined;
  NativeContext ctx(0);
  EXPECT_EQ(combined.invoke(ctx, arg_req(1, 0, 0)).response, 1);
  EXPECT_EQ(combined.invoke(ctx, arg_req(2, 0, 0), 10).response, 11);
}

// The wrapper's RMW budget, counted by the context: a fast-path op
// pays exactly the election; a published op exactly the slot claim
// plus the election that serves it. Pipeline<HopModule, SinkModule>
// itself touches no counted shared memory, so every RMW here is the
// wrapper's own — a pending counter, or any other per-op RMW, would
// show up as an extra one.
TEST(Combining, RmwBudgetIsTheElectionPlusTheClaimWhenPublished) {
  Combining<Pipeline<HopModule, SinkModule>, 4> combined;
  NativeContext ctx(0);

  for (std::uint64_t i = 0; i < 10; ++i) {
    const StepCounters before = ctx.counters();
    ASSERT_TRUE(combined.invoke(ctx, arg_req(i + 1, 0, 0)).committed());
    EXPECT_EQ((ctx.counters() - before).rmws, 1u) << "fast-path op " << i;
  }
  EXPECT_EQ(combined.direct_ops(), 10u);

  // elect_spins = 0: every op publishes, and its own wait loop wins
  // the election and serves it (solo, nobody else can).
  combined.set_elect_spins(0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const StepCounters before = ctx.counters();
    ASSERT_TRUE(combined.invoke(ctx, arg_req(i + 11, 0, 0)).committed());
    EXPECT_EQ((ctx.counters() - before).rmws, 2u) << "published op " << i;
  }
  // The async surface pays the same: submit + wait.
  {
    const StepCounters before = ctx.counters();
    ASSERT_TRUE(combined.submit(ctx, arg_req(21, 0, 0)).wait().committed());
    EXPECT_EQ((ctx.counters() - before).rmws, 2u);
  }
  EXPECT_EQ(combined.combined_ops(), 11u);
  EXPECT_EQ(combined.combine_rounds(), 11u);
  EXPECT_EQ(combined.direct_ops(), 10u);
  EXPECT_EQ(combined.occupied(), 0u);
}

// drain() with nothing pending returns at once — no election, no RMW —
// both on a fresh object (no record ever claimed) and after the
// slot-exhaustion inline fallback served every publication it found.
TEST(Combining, DrainReturnsAtOnceWhenNothingIsPending) {
  Combining<Pipeline<HopModule, TicketModule>, 2> combined;
  NativeContext ctx(0);
  combined.drain(ctx);
  EXPECT_EQ(ctx.counters().rmws, 0u);
  EXPECT_EQ(combined.occupied(), 0u);

  // Two publications fill both records; the third submission finds no
  // free record, wins the lock and completes inline, serving the two
  // pending records in the same pass.
  combined.set_elect_spins(0);
  Ticket<ModuleResult> a = combined.submit(ctx, arg_req(1, 0, 0));
  Ticket<ModuleResult> b = combined.submit(ctx, arg_req(2, 0, 0));
  EXPECT_EQ(combined.occupied(), 2u);
  Ticket<ModuleResult> c = combined.submit(ctx, arg_req(3, 0, 0));
  EXPECT_TRUE(c.poll());  // born ready: the inline fallback
  EXPECT_EQ(combined.direct_ops(), 1u);
  EXPECT_EQ(combined.combined_ops(), 2u);

  const StepCounters before = ctx.counters();
  combined.drain(ctx);
  EXPECT_EQ((ctx.counters() - before).rmws, 0u);
  EXPECT_TRUE(a.poll());
  EXPECT_TRUE(b.poll());
  // The inline op executed first (ticket 0), then the pass it ran
  // served the two publications (tickets 1 and 2).
  EXPECT_EQ(c.wait().response, 0);
  EXPECT_EQ(a.wait().response + b.wait().response, 1 + 2);
  EXPECT_EQ(combined.occupied(), 0u);
}

// ---------------------------------------------------------------------------
// Combining under real threads (runs under TSan via the "tsan" label)

// Combiners find pending records by scanning the claimed prefix of the
// slot array, so records claimed for the first time MID-RUN (raising
// the scan bound while combiners are scanning) must still be served.
// Early threads use slots 0-1; late threads, started once the early
// ones are busy, route to slots 5 and 7 — each new highest record.
// Every thread mixes fast-path invoke, ticketed submit and
// callback-carrying submit whose ticket is dropped, while one thread
// toggles the election knob so both the fast path and the publication
// path run. At the end one drain() must leave no record occupied, and
// every completion callback must have fired exactly once.
TEST(Combining, LateHighSlotClaimsAreServedAndDrainLeavesNoResidue) {
  constexpr std::size_t kSlots = 8;
  constexpr std::array<ProcessId, 4> kIds{0, 1, 5, 7};
  constexpr std::uint64_t kOps = 600;
  constexpr std::uint64_t kTotal = kIds.size() * kOps;

  for (int round = 0; round < 10; ++round) {
    Combining<Pipeline<HopModule, TicketModule>, kSlots> combined;
    std::vector<std::atomic<std::uint32_t>> fired(kTotal);
    std::atomic<std::uint64_t> early_progress{0};
    const CompletionFn count_fire = [](void* user, const ModuleResult&) {
      static_cast<std::atomic<std::uint32_t>*>(user)->fetch_add(
          1, std::memory_order_relaxed);
    };

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kIds.size(); ++t) {
      threads.emplace_back([&, t] {
        const bool late = kIds[t] >= 2;
        if (late) {
          while (early_progress.load(std::memory_order_acquire) < kOps / 2) {
            std::this_thread::yield();
          }
        }
        NativeContext ctx(kIds[t]);
        std::vector<Ticket<ModuleResult>> tickets;
        for (std::uint64_t i = 0; i < kOps; ++i) {
          const std::uint64_t k = t * kOps + i;
          const Request m{(static_cast<std::uint64_t>(t) << 40) | (i + 1),
                          ctx.id(), CounterSpec::kFetchInc, 0};
          if (t == 0 && i % 32 == 0) {
            combined.set_elect_spins((i / 32) % 2 == 0 ? 0u : 1u);
          }
          switch (i % 3) {
            case 0:
              (void)combined.invoke(ctx, m);
              fired[k].store(1, std::memory_order_relaxed);  // no callback
              break;
            case 1:
              tickets.push_back(
                  combined.submit(ctx, m, std::nullopt, count_fire, &fired[k]));
              break;
            default:
              (void)combined.submit(ctx, m, std::nullopt, count_fire,
                                    &fired[k]);
              break;
          }
          if (tickets.size() == 4) {
            for (auto& tk : tickets) (void)tk.wait();
            tickets.clear();
          }
          if (!late) early_progress.fetch_add(1, std::memory_order_release);
        }
        for (auto& tk : tickets) (void)tk.wait();
      });
    }
    for (auto& th : threads) th.join();

    NativeContext ctx(0);
    combined.drain(ctx);
    EXPECT_EQ(combined.occupied(), 0u);
    EXPECT_EQ(combined.object().stage<1>().count(), kTotal);
    EXPECT_EQ(combined.direct_ops() + combined.combined_ops(), kTotal);
    for (std::uint64_t k = 0; k < kTotal; ++k) {
      ASSERT_EQ(fired[k].load(std::memory_order_relaxed), 1u)
          << "op " << k << " round " << round;
    }
  }
}

TEST(Combining, ConcurrentTicketsAreDistinctAndFullyAccounted) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 512;
  constexpr std::uint64_t kTotal = kThreads * kOps;

  Combining<Pipeline<HopModule, TicketModule>, 4> combined;
  std::vector<std::atomic<std::uint8_t>> seen(kTotal);
  std::atomic<std::uint64_t> bad{0};

  (void)workload::run_threads(
      kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
        const ModuleResult r = combined.invoke(
            ctx, Request{(static_cast<std::uint64_t>(ctx.id()) << 40) | (i + 1),
                         ctx.id(), CounterSpec::kFetchInc, 0});
        const auto ticket = static_cast<std::uint64_t>(r.response);
        if (!r.committed() || ticket >= kTotal ||
            seen[ticket].exchange(1, std::memory_order_relaxed) != 0) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      });

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(combined.object().stage<1>().count(), kTotal);
  EXPECT_EQ(combined.stats(1).commits, kTotal);
  // Every op was either batched by a combiner or ran the fast path.
  EXPECT_EQ(combined.combined_ops() + combined.direct_ops(), kTotal);
  EXPECT_LE(combined.combine_rounds(), combined.combined_ops());
}

TEST(Combining, SharedSlotsStayCorrectWhenThreadsOutnumberThem) {
  // 4 threads over 2 slots: colliding publishers must wait for the
  // slot's round trip, never corrupt each other's records.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 256;
  constexpr std::uint64_t kTotal = kThreads * kOps;

  Combining<Pipeline<HopModule, TicketModule>, 2> combined;
  std::vector<std::atomic<std::uint8_t>> seen(kTotal);
  std::atomic<std::uint64_t> bad{0};

  (void)workload::run_threads(
      kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
        const ModuleResult r = combined.invoke(
            ctx, Request{(static_cast<std::uint64_t>(ctx.id()) << 40) | (i + 1),
                         ctx.id(), CounterSpec::kFetchInc, 0});
        const auto ticket = static_cast<std::uint64_t>(r.response);
        if (!r.committed() || ticket >= kTotal ||
            seen[ticket].exchange(1, std::memory_order_relaxed) != 0) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      });

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(combined.object().stage<1>().count(), kTotal);
}

// Commits the inherited hop count and tallies its commits: the
// response checks the switch plumbing through the batch path, the
// count checks the accounting.
struct HopCountSink {
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    (void)count_.fetch_add(ctx);
    return ModuleResult::commit(init.value_or(0));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

// Every op through per-shard combiners commits its full-walk hop
// count — through invoke(), and through submit() with kWindow tickets
// in flight per thread — each shard's sink counts exactly the ops its
// threads route to it, and the stats forwarded through Combining and
// merged by Sharded count every op.
template <std::size_t kShards>
void expect_sharded_combining_accounts_every_op() {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 128;  // per thread, per entry point
  constexpr std::size_t kWindow = 4;
  constexpr std::uint64_t kTotal = 2 * kThreads * kOps;
  using Pipe = Pipeline<HopModule, HopModule, HopModule, HopCountSink>;
  Sharded<Combining<Pipe, 4>, kShards, ByThread> sharded;
  std::atomic<std::uint64_t> bad{0};
  const auto check = [&](const ModuleResult& r) {
    if (!r.committed() || r.response != 3) {
      bad.fetch_add(1, std::memory_order_relaxed);
    }
  };
  const auto request = [](NativeContext& ctx, std::uint64_t i) {
    return Request{(static_cast<std::uint64_t>(ctx.id()) << 40) | (i + 1),
                   ctx.id(), CounterSpec::kFetchInc, 0};
  };

  (void)workload::run_threads(
      kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
        check(sharded.invoke(ctx, request(ctx, i)));
      });
  // Async: each thread refills a ring of kWindow tickets, collecting
  // the oldest (alternately by wait() and by poll()) before reusing
  // its place, so several of its publications are pending at once.
  (void)workload::run_threads(
      kThreads, 1, [&](NativeContext& ctx, std::uint64_t) {
        std::array<Ticket<ModuleResult>, kWindow> ring;
        const auto collect = [&](Ticket<ModuleResult>& t, std::uint64_t i) {
          if (!t.valid()) return;
          if (i % 2 == 0) {
            check(t.wait());
            return;
          }
          while (!t.poll()) sharded.drain(ctx);
          check(*t.try_result());
        };
        for (std::uint64_t i = 0; i < kOps; ++i) {
          collect(ring[i % kWindow], i);
          ring[i % kWindow] = sharded.submit(ctx, request(ctx, kOps + i));
        }
        for (std::uint64_t i = 0; i < kWindow; ++i) collect(ring[i], i);
      });

  EXPECT_EQ(bad.load(), 0u) << kShards << " shards";
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    // ByThread: shard s serves the threads t with t % kShards == s.
    std::uint64_t routed = 0;
    for (int t = 0; t < kThreads; ++t) {
      if (static_cast<std::size_t>(t) % kShards == s) routed += 2 * kOps;
    }
    const std::uint64_t got =
        sharded.shard(s).object().template stage<3>().count();
    EXPECT_EQ(got, routed) << "shard " << s << " of " << kShards;
    total += got;
  }
  EXPECT_EQ(total, kTotal) << kShards << " shards";
  for (std::size_t stage = 0; stage < 3; ++stage) {
    EXPECT_EQ(sharded.stats(stage).aborts, kTotal) << "stage " << stage;
  }
  EXPECT_EQ(sharded.stats(3).commits, kTotal) << kShards << " shards";
}

TEST(Combining, ShardedCombiningKeepsPerShardAccounting) {
  expect_sharded_combining_accounts_every_op<1>();
  expect_sharded_combining_accounts_every_op<4>();
}

TEST(Combining, BackoffLadderLosesNoOpsUnderOversubscription) {
  // The spin → pause → yield ladder (spin_backoff) exists
  // for exactly this regime: more runnable publishers than cores, so a
  // waiter that refuses to yield burns the timeslice the combiner (or
  // the slot owner) needs. Oversubscribe deliberately and verify
  // nothing is lost: every op commits a distinct ticket and the
  // telemetry accounts for every invocation. There are no wakeups to
  // lose by construction — every backoff rung returns to a re-read of
  // the watched variable — and this pins the ladder against
  // reintroducing one (e.g. a futex-style sleep without a matching
  // wake on the publish path).
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads =
      std::clamp(static_cast<int>(hw == 0 ? 2 : hw) * 2, 4, 16);
  constexpr std::uint64_t kOps = 256;
  const std::uint64_t total = static_cast<std::uint64_t>(threads) * kOps;

  Combining<Pipeline<HopModule, TicketModule>, 4> combined;
  std::vector<std::atomic<std::uint8_t>> seen(total);
  std::atomic<std::uint64_t> bad{0};

  (void)workload::run_threads(
      threads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
        const ModuleResult r = combined.invoke(
            ctx, Request{(static_cast<std::uint64_t>(ctx.id()) << 40) | (i + 1),
                         ctx.id(), CounterSpec::kFetchInc, 0});
        const auto ticket = static_cast<std::uint64_t>(r.response);
        if (!r.committed() || ticket >= total ||
            seen[ticket].exchange(1, std::memory_order_relaxed) != 0) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      });

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(combined.object().stage<1>().count(), total);
  EXPECT_EQ(combined.combined_ops() + combined.direct_ops(), total);
}

TEST(Combining, ConcurrentHistoryLinearizesAgainstCounterSpec) {
  // The acceptance check for the batched execution path: operations
  // served by a combiner on another thread must still take effect
  // inside their own invoke/return window. A global atomic clock
  // timestamps the windows; the Wing&Gong checker searches for a
  // linearization. Trace sizes stay small — the checker is exponential
  // in overlap.
  constexpr int kThreads = 3;
  constexpr std::uint64_t kOps = 4;

  for (int round = 0; round < 10; ++round) {
    Combining<Pipeline<HopModule, TicketModule>, kThreads> combined;
    std::atomic<std::uint64_t> clock{0};
    struct Recorded {
      Response response;
      std::uint64_t invoke;
      std::uint64_t ret;
    };
    std::array<std::array<Recorded, kOps>, kThreads> rec{};

    (void)workload::run_threads(
        kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
          const Request m{
              (static_cast<std::uint64_t>(ctx.id()) << 40) | (i + 1),
              ctx.id(), CounterSpec::kFetchInc, 0};
          auto& slot = rec[static_cast<std::size_t>(ctx.id())]
                          [static_cast<std::size_t>(i)];
          slot.invoke = clock.fetch_add(1, std::memory_order_acq_rel);
          const ModuleResult r = combined.invoke(ctx, m);
          slot.ret = clock.fetch_add(1, std::memory_order_acq_rel);
          slot.response = r.response;
        });

    std::vector<ConcurrentOp> ops;
    for (int t = 0; t < kThreads; ++t) {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const auto& r =
            rec[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        ConcurrentOp op;
        op.pid = static_cast<ProcessId>(t);
        op.request = Request{(static_cast<std::uint64_t>(t) << 40) | (i + 1),
                             static_cast<ProcessId>(t),
                             CounterSpec::kFetchInc, 0};
        op.response = r.response;
        op.invoke = r.invoke;
        op.ret = r.ret;
        op.completed = true;
        ops.push_back(op);
      }
    }
    ASSERT_TRUE(linearizable<CounterSpec>(std::move(ops)))
        << "round " << round;
  }
}

}  // namespace
}  // namespace scm
