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
#include <chrono>
#include <cstdint>
#include <limits>
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
#include "fixtures.hpp"
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

using fixtures::HopModule;
using fixtures::SinkModule;
using fixtures::TicketModule;

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
  // The wrapper adds its election gate on top of the register-only
  // pipeline; the gate's CAS only ever swaps 0 for 1, a test-and-set.
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
}

TEST(Combining, WrappedChainInvokeMatchesBarePerformSolo) {
  using SplitStage = ComposableUniversal<CounterSpec, SplitConsensus, 32>;
  using CasStage = ComposableUniversal<CounterSpec, CasConsensus, 32>;
  using Chain = StaticAbstractChain<SplitStage, CasStage>;
  static_assert(Composable<Chain, NativeContext>);
  static_assert(Combining<Chain, 4>::kConsensusNumber == kConsensusNumberCas);

  constexpr int kN = 1;  // named: forward_as_tuple holds references
  SplitStage split_a(kN, 32, "a"), split_b(kN, 32, "b"), split_c(kN, 32, "c");
  CasStage cas_a(kN, 32, "a"), cas_b(kN, 32, "b"), cas_c(kN, 32, "c");
  Chain bare(kN, split_a, cas_a);
  Combining<Chain, 4> combined(std::in_place, kN, split_b, cas_b);
  Sharded<Chain, 2, ByThread> sharded(std::in_place, [&](std::size_t) {
    return std::forward_as_tuple(kN, split_c, cas_c);
  });

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

// Reports the init it was handed through its result, on both result
// paths: an even arg commits the init as the response, an odd arg
// aborts with it as the switch value (kNoInit when uninitialized).
struct InitEcho {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;
  static constexpr SwitchValue kNoInit = -7;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    const SwitchValue seen = init.value_or(kNoInit);
    return m.arg % 2 == 0 ? ModuleResult::commit(seen)
                          : ModuleResult::abort_with(seen);
  }
};

// One record and elect_spins = 0: every op claims record 0, publishes
// into it and is served there by its own wait loop, so each op's
// request and then its result cross the same payload bytes. Op k
// alternates with-init/without-init every op, callback/no callback
// every 2 and commit/abort every 4, so a has_init left over from the
// previous publication, or a request field read after the result
// overwrote it, shows up as a wrong result — and each callback must be
// handed its own op's request, which the result has overwritten in the
// record by then. The callback is then checked on both inline paths:
// the gate-held fast path, and the inline run of an op that finds the
// only record held by an uncollected publication.
TEST(Combining, SeededInitsPlumbThroughThePublicationSlot) {
  Combining<Pipeline<HopModule, SinkModule>, 1> combined;
  combined.set_elect_spins(0);
  NativeContext ctx(0);
  EXPECT_EQ(combined.invoke(ctx, arg_req(1, 0, 0)).response, 1);
  EXPECT_EQ(combined.invoke(ctx, arg_req(2, 0, 0), 10).response, 11);
  EXPECT_EQ(combined.invoke(ctx, arg_req(3, 0, 0)).response, 1);
  EXPECT_EQ(combined.combined_ops(), 3u);

  Combining<InitEcho, 1> echo;
  echo.set_elect_spins(0);
  struct Seen {
    int calls = 0;
    Request request;
    ModuleResult last;
  } seen;
  const CompletionFn record = [](void* user, const Request& m,
                                 const ModuleResult& r) {
    auto* s = static_cast<Seen*>(user);
    ++s->calls;
    s->request = m;
    s->last = r;
  };
  constexpr std::uint64_t kOps = 16;
  int callbacks = 0;
  for (std::uint64_t k = 0; k < kOps; ++k) {
    const bool with_init = k % 2 == 0;
    const bool with_callback = (k / 2) % 2 == 0;
    const bool aborts = (k / 4) % 2 == 1;
    const std::optional<SwitchValue> init =
        with_init ? std::optional<SwitchValue>(static_cast<SwitchValue>(10 + k))
                  : std::nullopt;
    const SwitchValue expect = init.value_or(InitEcho::kNoInit);
    const Request m = arg_req(k + 1, 0, aborts ? 1 : 0);
    const ModuleResult r =
        echo.submit(ctx, m, init, with_callback ? record : nullptr, &seen)
            .wait();
    if (aborts) {
      EXPECT_EQ(r.outcome, Outcome::kAbort) << "op " << k;
      EXPECT_EQ(r.switch_value, expect) << "op " << k;
      EXPECT_EQ(r.response, kNoResponse) << "op " << k;
    } else {
      EXPECT_EQ(r.outcome, Outcome::kCommit) << "op " << k;
      EXPECT_EQ(r.response, expect) << "op " << k;
      EXPECT_EQ(r.switch_value, 0) << "op " << k;
    }
    if (with_callback) {
      ++callbacks;
      EXPECT_EQ(seen.request, m) << "op " << k;
      EXPECT_EQ(seen.last.outcome, r.outcome) << "op " << k;
      EXPECT_EQ(seen.last.response, r.response) << "op " << k;
      EXPECT_EQ(seen.last.switch_value, r.switch_value) << "op " << k;
    }
    EXPECT_EQ(seen.calls, callbacks) << "op " << k;
  }
  // Every op crossed the record: none ran on the direct path.
  EXPECT_EQ(echo.combined_ops(), kOps);
  EXPECT_EQ(echo.direct_ops(), 0u);
  EXPECT_EQ(echo.occupied(), 0u);

  // Fast path: the gate is free, the op runs direct.
  echo.set_elect_spins(1);
  const Request fast = arg_req(kOps + 1, 0, 0);
  EXPECT_EQ(echo.submit(ctx, fast, 5, record, &seen).wait().response, 5);
  EXPECT_EQ(seen.request, fast);
  EXPECT_EQ(echo.direct_ops(), 1u);

  // Exhaustion: `held` takes the only record and stays uncollected, so
  // `inline_op` runs inline under the gate, whose pass then serves
  // `held`. Each callback gets its own op.
  echo.set_elect_spins(0);
  const Request held = arg_req(kOps + 2, 0, 0);
  const Request inline_op = arg_req(kOps + 3, 0, 0);
  Seen seen_inline;
  auto held_ticket = echo.submit(ctx, held, 6, record, &seen);
  EXPECT_FALSE(held_ticket.poll());
  const int before = seen.calls;
  auto inline_ticket = echo.submit(ctx, inline_op, 7, record, &seen_inline);
  EXPECT_EQ(seen_inline.calls, 1);
  EXPECT_EQ(seen_inline.request, inline_op);
  EXPECT_EQ(seen_inline.last.response, 7);
  EXPECT_EQ(seen.calls, before + 1);
  EXPECT_EQ(seen.request, held);
  EXPECT_EQ(seen.last.response, 6);
  EXPECT_EQ(inline_ticket.wait().response, 7);
  EXPECT_EQ(held_ticket.wait().response, 6);
  EXPECT_EQ(echo.direct_ops(), 2u);
  EXPECT_EQ(echo.occupied(), 0u);
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

// Holds the gate for as long as the test says: an op with arg kHold
// reports that it entered, then blocks until `go` is set; every other
// op commits its arg at once.
struct HoldModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;
  static constexpr std::int64_t kHold = -1;

  std::atomic<bool> entered{false};
  std::atomic<bool> go{false};

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    if (m.arg == kHold) {
      entered.store(true, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    return ModuleResult::commit(m.arg);
  }
};

// Spins on `flag` for at most 10 s; false when the deadline passed.
bool await_flag(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// The election's spin is bounded: while a direct op holds the gate for
// longer than the spin lasts, a second context's submit makes its
// elect_spins attempts, then publishes and returns a pending ticket,
// and the holder's pass serves it before the holder releases the gate.
// An unbounded spin never returns from submit, which the deadline
// turns into a failure (the holder is released either way, so nothing
// hangs).
TEST(Combining, ElectionSpinIsBoundedAndALongHoldPublishes) {
  Combining<HoldModule, 4> combined;
  HoldModule& mod = combined.object();
  NativeContext holder_ctx(0);
  NativeContext publisher_ctx(1);

  std::thread holder([&] {
    (void)combined.invoke(holder_ctx, arg_req(1, 0, HoldModule::kHold));
  });
  ASSERT_TRUE(await_flag(mod.entered));
  EXPECT_EQ(combined.direct_ops(), 1u);

  std::optional<Ticket<ModuleResult>> ticket;
  std::atomic<bool> submitted{false};
  std::thread publisher([&] {
    ticket.emplace(combined.submit(publisher_ctx, arg_req(2, 1, 7)));
    submitted.store(true, std::memory_order_release);
  });
  const bool returned = await_flag(submitted);
  EXPECT_TRUE(returned) << "submit kept spinning on a held gate";
  if (returned) {
    EXPECT_EQ(combined.occupied(), 1u);
    EXPECT_EQ(combined.direct_ops(), 1u);
    EXPECT_EQ(combined.combined_ops(), 0u);
  }
  mod.go.store(true, std::memory_order_release);
  holder.join();
  publisher.join();

  if (returned) {
    // The holder's own pass served the publication.
    EXPECT_EQ(combined.combined_ops(), 1u);
    EXPECT_EQ(combined.combine_rounds(), 1u);
    EXPECT_EQ(combined.direct_ops(), 1u);
    ASSERT_TRUE(ticket.has_value());
    EXPECT_TRUE(ticket->poll());
    EXPECT_EQ(ticket->wait().response, 7);
  }
  EXPECT_EQ(combined.occupied(), 0u);
}

// The converse: a gate freed while the election still spins is taken,
// and the op runs direct; nothing is published. The knob is pinned at
// its maximum so that no schedule can exhaust the spin before the
// holder lets go.
TEST(Combining, GateFreedWithinTheSpinRunsTheOpDirect) {
  Combining<HoldModule, 4> combined;
  HoldModule& mod = combined.object();
  combined.set_elect_spins(std::numeric_limits<std::uint32_t>::max());
  NativeContext holder_ctx(0);
  NativeContext spinner_ctx(1);

  std::thread holder([&] {
    (void)combined.invoke(holder_ctx, arg_req(1, 0, HoldModule::kHold));
  });
  ASSERT_TRUE(await_flag(mod.entered));

  std::atomic<bool> spinning{false};
  ModuleResult result;
  std::thread spinner([&] {
    spinning.store(true, std::memory_order_release);
    result = combined.invoke(spinner_ctx, arg_req(2, 1, 7));
  });
  ASSERT_TRUE(await_flag(spinning));
  // Let the spin get under way before the holder lets go.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(combined.occupied(), 0u);
  mod.go.store(true, std::memory_order_release);
  holder.join();
  spinner.join();

  EXPECT_EQ(result.response, 7);
  EXPECT_EQ(combined.direct_ops(), 2u);
  EXPECT_EQ(combined.combined_ops(), 0u);
  EXPECT_EQ(combined.combine_rounds(), 0u);
  EXPECT_EQ(combined.occupied(), 0u);
}

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
    const CompletionFn count_fire = [](void* user, const Request&,
                                       const ModuleResult&) {
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
  // The spin → pause → yield → park ladder exists for exactly this
  // regime: more runnable publishers than cores, so a waiter that
  // refuses to yield burns the timeslice the combiner (or the slot
  // owner) needs. spin_backoff re-checks the watched variable after
  // each of its 8 bare re-reads and 255 single pauses, then yields;
  // parked_wait then parks on the wrapper's WaitPoint. Oversubscribe
  // deliberately and verify nothing is lost: every op commits a
  // distinct ticket and the telemetry accounts for every invocation.
  // Every spin and yield rung returns to a re-read of the watched
  // variable, and every park is preceded by an announce-then-re-check,
  // so a lost wakeup (a state change on the publish path without its
  // matching wake_all) would hang or drop ops here.
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
