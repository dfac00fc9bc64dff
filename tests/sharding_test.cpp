// Tests for the sharded composition layer (core/sharding.hpp) and the
// keyed operation streams (workload/keyed.hpp):
//
//  * routing policies are pure functions (the concept demands a const
//    call operator), deterministic per process (ByThread) and per key
//    (ByKeyHash);
//  * a depth-2 A1∘A2 pipeline replicated across shards stays
//    linearizable per shard under random schedules (each shard is the
//    composed object the paper proves correct);
//  * under real threads, every keyed op through a depth-4 sharded
//    pipeline commits its full-walk hop count, and each shard's sink
//    counts exactly the ops whose key routes to it;
//  * merged statistics equal the sum of the per-shard snapshots, for
//    pipeline stats, chain commit tallies, and per-shard Combining's
//    direct, combined and round counts and all five park/wake fields
//    (each forced nonzero on every shard);
//  * the shard count is a compile-time constant and shard(s) rejects
//    an index outside it;
//  * Sharded composes: it is itself a ComposableModule, nests inside
//    pipelines and inside another Sharded, and wraps a Pipeline of
//    Abstracts via per-shard constructor arguments;
//  * keyed streams are deterministic, in-bounds, and skewed exactly
//    when asked.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "core/combining.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "core/sharding.hpp"
#include "fixtures.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/context.hpp"
#include "runtime/platform.hpp"
#include "runtime/primitives.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "support/parking.hpp"
#include "support/rng.hpp"
#include "tas/a1_module.hpp"
#include "tas/a2_module.hpp"
#include "universal/composable_universal.hpp"
#include "workload/driver.hpp"
#include "workload/keyed.hpp"

namespace scm {
namespace {

using fixtures::HoldModule;
using fixtures::HopModule;
using fixtures::SinkModule;

using sim::SimContext;
using sim::Simulator;

using A1 = ObstructionFreeTas<>;
using A2 = WaitFreeTas;

Request keyed_req(std::uint64_t id, ProcessId p, std::uint64_t key) {
  return Request{id, p, TasSpec::kTestAndSet,
                 static_cast<std::int64_t>(key)};
}

// ---------------------------------------------------------------------------
// Static properties

TEST(Sharded, IsItselfAComposableModuleAndInheritsStaticTags) {
  using Pipe = Pipeline<HopModule, SinkModule>;
  using S = Sharded<Pipe, 4, ByKeyHash>;
  static_assert(S::kShardCount == 4);
  static_assert(S::active_shards() == 4, "the partition is fixed");
  static_assert(S::kDepth == Pipe::kDepth);
  static_assert(S::kConsensusNumber == Pipe::kConsensusNumber,
                "replication cannot raise consensus power");
  static_assert(ComposableModule<S, NativeContext>);
  static_assert(!std::is_polymorphic_v<S>);

  // Nesting: a shard may itself be sharded, and the result is still a
  // module.
  using Nested = Sharded<S, 2, ByThread>;
  static_assert(Nested::kConsensusNumber == Pipe::kConsensusNumber);
  static_assert(ComposableModule<Nested, NativeContext>);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Routing policies

// A policy whose call operator is not const could keep state between
// calls; the concept rejects it, so routing stays a pure function of
// (context, request, shard count).
struct MutableCursorPolicy {
  std::size_t next = 0;
  template <class Ctx>
  std::size_t operator()(Ctx& /*ctx*/, const Request& /*m*/,
                         std::size_t shards) {
    return next++ % shards;
  }
};

static_assert(ShardRoutingPolicy<ByThread, NativeContext>);
static_assert(ShardRoutingPolicy<ByKeyHash, NativeContext>);
static_assert(ShardRoutingPolicy<ByThread, SimContext>);
static_assert(ShardRoutingPolicy<ByKeyHash, SimContext>);
static_assert(!ShardRoutingPolicy<MutableCursorPolicy, NativeContext>);

TEST(Sharded, ByThreadRoutesEachProcessToItsResidueClass) {
  Sharded<Pipeline<SinkModule>, 4, ByThread> sharded;
  for (int pid = 0; pid < 12; ++pid) {
    NativeContext ctx(static_cast<ProcessId>(pid));
    const Request m = keyed_req(static_cast<std::uint64_t>(pid) + 1,
                                static_cast<ProcessId>(pid), 99);
    EXPECT_EQ(sharded.route(ctx, m), static_cast<std::size_t>(pid % 4));
    // Stable across repeated calls and independent of the key.
    EXPECT_EQ(sharded.route(ctx, m),
              sharded.route(ctx, keyed_req(500 + static_cast<std::uint64_t>(
                                                     pid),
                                           static_cast<ProcessId>(pid), 7)));
  }
}

TEST(Sharded, ByKeyHashIsDeterministicPerKeyAndIssuerIndependent) {
  Sharded<Pipeline<SinkModule>, 8, ByKeyHash> sharded;
  NativeContext c0(0), c5(5);
  std::array<bool, 8> hit{};
  for (std::uint64_t key = 0; key < 256; ++key) {
    const std::size_t via0 = sharded.route(c0, keyed_req(key + 1, 0, key));
    const std::size_t via5 =
        sharded.route(c5, keyed_req(key + 1000, 5, key));
    EXPECT_EQ(via0, via5) << "key " << key;
    EXPECT_LT(via0, 8u);
    hit[via0] = true;
  }
  // The mixer spreads 256 keys over all 8 shards.
  for (std::size_t s = 0; s < 8; ++s) EXPECT_TRUE(hit[s]) << "shard " << s;
}

TEST(Sharded, InvokeAtRunsOnTheNamedShardWithoutConsultingThePolicy) {
  // invoke_at runs on exactly the shard it is given, even one the
  // policy would never pick for this caller: process 0 routes ByThread
  // to shard 0, and each op lands on the named shard instead.
  Sharded<Pipeline<HopModule, SinkModule>, 3, ByThread> sharded;
  NativeContext ctx(0);
  for (int i = 0; i < 6; ++i) {
    const Request m = keyed_req(static_cast<std::uint64_t>(i) + 1, 0, 0);
    EXPECT_EQ(sharded.route(ctx, m), 0u);
    const std::size_t s = static_cast<std::size_t>(i % 3);
    EXPECT_EQ(sharded.invoke_at(s, ctx, m).response, 1);
    EXPECT_EQ(sharded.shard(s).stats(1).commits,
              static_cast<std::uint64_t>(i / 3) + 1);
  }
}

// ---------------------------------------------------------------------------
// Per-shard isolation and linearizability

TEST(ShardedDeathTest, ShardRejectsAnOutOfRangeIndex) {
  Sharded<Pipeline<SinkModule>, 4, ByThread> sharded;
  const auto& view = sharded;
  EXPECT_DEATH((void)sharded.shard(4), "s < kShards");
  EXPECT_DEATH((void)view.shard(7), "s < kShards");
}

TEST(Sharded, ShardsAreIndependentInstances) {
  // Two ByThread shards of a hop->sink pipeline: operations on shard 0
  // never touch shard 1's counters.
  Sharded<Pipeline<HopModule, SinkModule>, 2, ByThread> sharded;
  NativeContext even(0), odd(1);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sharded.invoke(even, keyed_req(static_cast<std::uint64_t>(i) +
                                                 1,
                                             0, 0))
                  .response,
              1);
  }
  EXPECT_EQ(sharded.invoke(odd, keyed_req(100, 1, 0)).response, 1);

  EXPECT_EQ(sharded.shard(0).stats(1).commits, 3u);
  EXPECT_EQ(sharded.shard(1).stats(1).commits, 1u);
}

TEST(Sharded, EachShardStaysLinearizableUnderRandomSchedules) {
  // Depth-2 A1∘A2 TAS per shard, ByKeyHash routing: every key's
  // operations land on one shard, so each shard's recorded history
  // must linearize against the TAS spec on its own (Theorem 4 shape,
  // replicated).
  constexpr std::size_t kShards = 2;
  constexpr int kN = 4;  // processes; keys chosen to cover both shards

  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Simulator s;
    Sharded<Pipeline<A1, A2>, kShards, ByKeyHash> sharded;

    // Map each process to a key such that both shards receive traffic.
    std::array<std::uint64_t, kN> key_of{};
    std::array<std::size_t, kN> shard_of{};
    {
      NativeContext probe(0);
      std::size_t want = 0;
      std::uint64_t next_key = 0;
      for (int p = 0; p < kN; ++p) {
        for (;; ++next_key) {
          const std::size_t sh = sharded.route(
              probe, keyed_req(1, 0, next_key));
          if (sh == want % kShards) {
            key_of[static_cast<std::size_t>(p)] = next_key++;
            shard_of[static_cast<std::size_t>(p)] = sh;
            ++want;
            break;
          }
        }
      }
    }

    std::vector<ModuleResult> rs(kN);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const Request m = keyed_req(static_cast<std::uint64_t>(p) + 1, p,
                                    key_of[static_cast<std::size_t>(p)]);
        ctx.begin_op();
        rs[static_cast<std::size_t>(p)] = sharded.invoke(ctx, m);
        ctx.end_op(rs[static_cast<std::size_t>(p)].response);
      });
    }
    sim::RandomSchedule sched(seed * 31 + 5);
    s.run(sched);

    // Exactly one winner per shard, and each shard's history
    // linearizes independently.
    for (std::size_t sh = 0; sh < kShards; ++sh) {
      int winners = 0;
      std::vector<ConcurrentOp> ops;
      for (const auto& rec : s.ops()) {
        const auto p = static_cast<std::size_t>(rec.pid);
        if (shard_of[p] != sh) continue;
        ASSERT_TRUE(rs[p].committed()) << "seed " << seed;
        if (rs[p].response == TasSpec::kWinner) ++winners;
        ConcurrentOp op;
        op.pid = rec.pid;
        op.request = keyed_req(static_cast<std::uint64_t>(rec.pid) + 1,
                               rec.pid, key_of[p]);
        op.response = rec.output;
        op.invoke = rec.invoke_event;
        op.ret = rec.response_event;
        op.completed = rec.complete;
        ops.push_back(op);
      }
      ASSERT_FALSE(ops.empty()) << "seed " << seed << " shard " << sh;
      EXPECT_EQ(winners, 1) << "seed " << seed << " shard " << sh;
      ASSERT_TRUE(linearizable<TasSpec>(std::move(ops)))
          << "seed " << seed << " shard " << sh;
    }
  }
}

// ---------------------------------------------------------------------------
// Keyed operations under real threads

// Commits the inherited hop count and tallies its commits, so each
// shard's total is readable after a threaded run.
struct CountingHopSink {
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    (void)count.fetch_add(ctx);
    return ModuleResult::commit(init.value_or(0));
  }

  NativeCounter count;
};

// Four threads draw keys from one Zipf stream and invoke a depth-4
// sharded pipeline. Every op must commit its full-walk hop count, and
// each shard's sink must count exactly the ops whose key routes to it,
// so the totals sum to the offered load.
template <std::size_t kShards>
void expect_keyed_ops_land_on_their_shard(double theta) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 512;
  constexpr std::uint64_t kKeys = 128;
  using Pipe = FastPipeline<HopModule, HopModule, HopModule, CountingHopSink>;
  Sharded<Pipe, kShards, ByKeyHash> sharded;

  const workload::ZipfianKeys stream(kKeys, theta);
  std::vector<Rng> rngs;
  std::vector<std::vector<std::uint64_t>> issued(
      kThreads, std::vector<std::uint64_t>(kKeys, 0));
  for (int t = 0; t < kThreads; ++t) {
    rngs.emplace_back(0x5bd1e995ULL * (static_cast<std::uint64_t>(t) + 1));
  }
  std::atomic<std::uint64_t> bad{0};
  (void)workload::run_threads(
      kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
        const auto t = static_cast<std::size_t>(ctx.id());
        const std::uint64_t key = stream(rngs[t]);
        ++issued[t][key];
        const auto id = (static_cast<std::uint64_t>(t) << 40) | (i + 1);
        const ModuleResult r =
            sharded.invoke(ctx, keyed_req(id, ctx.id(), key));
        if (!r.committed() || r.response != 3) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      });
  EXPECT_EQ(bad.load(), 0u) << kShards << " shards, skew " << theta;

  std::array<std::uint64_t, kShards> expected{};
  NativeContext probe(0);
  for (const auto& per_thread : issued) {
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      expected[sharded.route(probe, keyed_req(1, 0, key))] += per_thread[key];
    }
  }
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::uint64_t got = sharded.shard(s).template stage<3>().count.peek();
    EXPECT_EQ(got, expected[s])
        << "shard " << s << " of " << kShards << ", skew " << theta;
    total += got;
  }
  EXPECT_EQ(total, kThreads * kOps);
}

TEST(Sharded, ConcurrentKeyedOpsCommitTheirHopCountOnTheirKeysShard) {
  for (const double theta : {0.0, 0.99}) {
    expect_keyed_ops_land_on_their_shard<1>(theta);
    expect_keyed_ops_land_on_their_shard<8>(theta);
  }
}

// ---------------------------------------------------------------------------
// Merged statistics

TEST(Sharded, AggregateStatsEqualSumOfPerShardSnapshots) {
  constexpr std::size_t kShards = 4;
  Sharded<Pipeline<HopModule, SinkModule>, kShards, ByThread> sharded;

  // Uneven load: process p issues p+1 operations.
  constexpr int kN = 6;
  for (int p = 0; p < kN; ++p) {
    NativeContext ctx(static_cast<ProcessId>(p));
    for (int i = 0; i <= p; ++i) {
      const auto id = static_cast<std::uint64_t>(p) * 100 +
                      static_cast<std::uint64_t>(i) + 1;
      (void)sharded.invoke(ctx, keyed_req(id, static_cast<ProcessId>(p), 0));
    }
  }

  constexpr std::uint64_t kTotal = kN * (kN + 1) / 2;  // 21
  for (std::size_t stage = 0; stage < 2; ++stage) {
    PipelineStageStats sum;
    for (std::size_t sh = 0; sh < kShards; ++sh) {
      const PipelineStageStats one = sharded.shard(sh).stats(stage);
      sum.commits += one.commits;
      sum.aborts += one.aborts;
    }
    const PipelineStageStats agg = sharded.stats(stage);
    EXPECT_EQ(agg.commits, sum.commits) << "stage " << stage;
    EXPECT_EQ(agg.aborts, sum.aborts) << "stage " << stage;
  }
  EXPECT_EQ(sharded.stats(0).aborts, kTotal);   // every op hops once
  EXPECT_EQ(sharded.stats(1).commits, kTotal);  // and commits at the sink
}

// Polls `done` for at most 10 s; false when the deadline passed.
template <class Pred>
bool within_deadline(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Runs one kHold op on its own thread, through the Sharded, and returns
// once it holds the gate of shard `k`.
template <class S>
std::thread hold_gate(S& sharded, std::size_t k, NativeContext& ctx,
                      std::uint64_t id) {
  HoldModule& mod = sharded.shard(k).object();
  mod.entered.store(false, std::memory_order_relaxed);
  mod.go.store(false, std::memory_order_relaxed);
  std::thread holder([&sharded, &ctx, id] {
    (void)sharded.invoke(ctx, Request{id, ctx.id(), 0, HoldModule::kHold});
  });
  EXPECT_TRUE(within_deadline(
      [&mod] { return mod.entered.load(std::memory_order_acquire); }));
  return holder;
}

// Sharded<Combining<...>>'s combining and parking aggregates against
// the sum of its shards. Every shard is driven through every counter:
//   * a kHold op runs direct and holds the gate, so a submit publishes
//     and the holder's pass serves it (a round, a combined op);
//   * a second holder keeps the gate while an invoke publishes and
//     parks; collecting the first ticket wakes it with its record still
//     unserved (a wake and a spurious wake), and the holder's pass
//     serves it (the futex syscalls ride the park and the wakes);
//   * an invoke that waits without parking, its yields raised so that
//     the holder lets go first, is a fast wake.
TEST(Sharded, AggregateCombiningAndParkingEqualSumOfShards) {
  constexpr std::size_t kShards = 2;
  using S = Sharded<Combining<HoldModule, 4>, kShards, ByThread>;
  S sharded;
  std::uint64_t next_id = 1;

  for (std::size_t k = 0; k < kShards; ++k) {
    auto& shard = sharded.shard(k);
    // ByThread: ids k, k + kShards, ... all route to shard k.
    NativeContext holder_ctx(static_cast<ProcessId>(k));
    NativeContext submit_ctx(static_cast<ProcessId>(k + kShards));
    NativeContext waiter_ctx(static_cast<ProcessId>(k + 2 * kShards));
    ASSERT_EQ(sharded.route(submit_ctx, Request{}), k);
    ASSERT_EQ(sharded.route(waiter_ctx, Request{}), k);

    std::thread holder = hold_gate(sharded, k, holder_ctx, next_id++);
    Ticket<ModuleResult> ticket = sharded.submit(
        submit_ctx, Request{next_id++, submit_ctx.id(), 0, 5});
    EXPECT_EQ(shard.occupied(), 1u);
    shard.object().go.store(true, std::memory_order_release);
    holder.join();

    holder = hold_gate(sharded, k, holder_ctx, next_id++);
    const std::uint64_t parks_before = shard.park_stats().parks;
    const std::uint64_t waiter_id = next_id++;
    std::thread waiter([&] {
      EXPECT_EQ(sharded.invoke(waiter_ctx,
                               Request{waiter_id, waiter_ctx.id(), 0, 9})
                    .response,
                9);
    });
    EXPECT_TRUE(within_deadline(
        [&] { return shard.park_stats().parks > parks_before; }))
        << "shard " << k << ": the waiter never parked";
    const std::uint64_t spurious_before = shard.park_stats().spurious_wakes;
    EXPECT_TRUE(ticket.poll());  // collects, and wakes the parked waiter
    EXPECT_TRUE(within_deadline([&] {
      return shard.park_stats().spurious_wakes > spurious_before;
    })) << "shard " << k << ": the wake found the record unserved";
    shard.object().go.store(true, std::memory_order_release);
    holder.join();
    waiter.join();
    EXPECT_EQ(ticket.wait().response, 5);

    // A fast wake needs the holder to let go while the waiter is still
    // in its wait, before it would park; retry until one lands.
    const int yields = shard.yields_before_park();
    shard.set_yields_before_park(1 << 20);
    EXPECT_TRUE(within_deadline([&] {
      holder = hold_gate(sharded, k, holder_ctx, next_id++);
      const std::uint64_t id = next_id++;
      std::thread fast([&sharded, &waiter_ctx, id] {
        (void)sharded.invoke(waiter_ctx, Request{id, waiter_ctx.id(), 0, 1});
      });
      (void)within_deadline([&] { return shard.occupied() == 1; });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      shard.object().go.store(true, std::memory_order_release);
      holder.join();
      fast.join();
      return shard.park_stats().fast_wakes > 0;
    })) << "shard " << k << ": no fast wake";
    shard.set_yields_before_park(yields);
  }

  std::uint64_t direct = 0;
  std::uint64_t combined = 0;
  std::uint64_t rounds = 0;
  ParkStats sum;
  for (std::size_t k = 0; k < kShards; ++k) {
    const auto& shard = sharded.shard(k);
    const ParkStats one = shard.park_stats();
    EXPECT_GT(shard.direct_ops(), 0u) << "shard " << k;
    EXPECT_GT(shard.combined_ops(), 0u) << "shard " << k;
    EXPECT_GT(shard.combine_rounds(), 0u) << "shard " << k;
    EXPECT_GT(one.parks, 0u) << "shard " << k;
    EXPECT_GT(one.wakes, 0u) << "shard " << k;
    EXPECT_GT(one.spurious_wakes, 0u) << "shard " << k;
    EXPECT_GT(one.fast_wakes, 0u) << "shard " << k;
    if (SCM_HAS_FUTEX) {
      EXPECT_GT(one.futex_syscalls, 0u) << "shard " << k;
    }
    direct += shard.direct_ops();
    combined += shard.combined_ops();
    rounds += shard.combine_rounds();
    sum.parks += one.parks;
    sum.wakes += one.wakes;
    sum.spurious_wakes += one.spurious_wakes;
    sum.futex_syscalls += one.futex_syscalls;
    sum.fast_wakes += one.fast_wakes;
  }
  EXPECT_EQ(sharded.direct_ops(), direct);
  EXPECT_EQ(sharded.combined_ops(), combined);
  EXPECT_EQ(sharded.combine_rounds(), rounds);
  const ParkStats agg = sharded.park_stats();
  EXPECT_EQ(agg.parks, sum.parks);
  EXPECT_EQ(agg.wakes, sum.wakes);
  EXPECT_EQ(agg.spurious_wakes, sum.spurious_wakes);
  EXPECT_EQ(agg.futex_syscalls, sum.futex_syscalls);
  EXPECT_EQ(agg.fast_wakes, sum.fast_wakes);
}

// ---------------------------------------------------------------------------
// Composition with pipelines and chains

TEST(Sharded, NestsInsideAPipelineAsAStage) {
  // A sharded all-abort front tier in front of a shared sink: the
  // combinator composes like any module (Theorem 2 applied to the
  // sharded object).
  Sharded<Pipeline<HopModule, HopModule>, 2, ByThread> front;
  SinkModule sink;
  auto pipe = make_pipeline(front, sink);
  static_assert(decltype(pipe)::kDepth == 2);

  NativeContext ctx(1);
  const ModuleResult r = pipe.invoke(ctx, keyed_req(1, 1, 0));
  EXPECT_TRUE(r.committed());
  EXPECT_EQ(r.response, 2);  // both hops of shard 1 ran
  EXPECT_EQ(front.shard(1).stats(1).aborts, 1u);
  EXPECT_EQ(front.shard(0).stats(0).invocations(), 0u);
}

TEST(Sharded, WrapsAbstractPipelineWithPerShardArguments) {
  using SplitStage = ComposableUniversal<CounterSpec, SplitConsensus, 48>;
  using CasStage = ComposableUniversal<CounterSpec, CasConsensus, 48>;
  using Chain = Pipeline<SplitStage&, CasStage&>;
  static_assert(Sharded<Chain, 2, ByThread>::kConsensusNumber ==
                kConsensusNumberCas);
  constexpr int kN = 2;

  SplitStage split0(kN, 48, "split0"), split1(kN, 48, "split1");
  CasStage cas0(kN, 48, "cas0"), cas1(kN, 48, "cas1");
  Sharded<Chain, 2, ByThread> sharded(
      std::in_place, [&](std::size_t shard) {
        return shard == 0 ? std::forward_as_tuple(split0, cas0)
                          : std::forward_as_tuple(split1, cas1);
      });

  // Each process drives its own shard's counter: two independent
  // fetch&inc sequences, each starting at zero.
  Simulator s;
  std::array<std::vector<Response>, kN> got;
  for (int p = 0; p < kN; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      for (int i = 0; i < 3; ++i) {
        const auto id = static_cast<std::uint64_t>(p) * 100 +
                        static_cast<std::uint64_t>(i) + 1;
        got[static_cast<std::size_t>(p)].push_back(
            sharded.invoke(ctx, Request{id, p, CounterSpec::kFetchInc, 0})
                .response);
      }
      // The explicit-shard surface continues the same shard's sequence
      // (ByThread maps process p to shard p here).
      got[static_cast<std::size_t>(p)].push_back(
          sharded
              .invoke_at(static_cast<std::size_t>(p), ctx,
                         Request{static_cast<std::uint64_t>(p) * 100 + 99, p,
                                 CounterSpec::kFetchInc, 0})
              .response);
    });
  }
  sim::RandomSchedule sched(11);
  s.run(sched);

  for (int p = 0; p < kN; ++p) {
    EXPECT_EQ(got[static_cast<std::size_t>(p)],
              (std::vector<Response>{0, 1, 2, 3}))
        << "p" << p;
  }

  // Chain accounting merges across shards: all eight commits are
  // visible through the aggregate, and they sum over the per-shard
  // tallies; each process drove its own shard, so each shard served
  // exactly its four.
  std::uint64_t agg = 0;
  for (std::size_t st = 0; st < 2; ++st) {
    std::uint64_t per_shard = 0;
    for (std::size_t sh = 0; sh < 2; ++sh) {
      per_shard += sharded.shard(sh).stats(st).commits;
    }
    EXPECT_EQ(sharded.stats(st).commits, per_shard);
    agg += per_shard;
  }
  EXPECT_EQ(agg, 8u);
  for (std::size_t sh = 0; sh < 2; ++sh) {
    EXPECT_EQ(sharded.shard(sh).stats(0).commits +
                  sharded.shard(sh).stats(1).commits,
              4u)
        << "shard " << sh;
  }
}

// ---------------------------------------------------------------------------
// Keyed streams

TEST(KeyedStreams, UniformDrawsAreInBoundsAndDeterministic) {
  const workload::UniformKeys keys(37);
  Rng a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t ka = keys(a);
    EXPECT_LT(ka, 37u);
    EXPECT_EQ(ka, keys(b));  // same seed, same stream
    if (ka != keys(c)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);  // different seed, different stream
}

TEST(KeyedStreams, ZipfianSkewConcentratesOnHotKeys) {
  constexpr std::uint64_t kKeys = 64;
  constexpr int kDraws = 20000;

  const auto histogram = [&](double theta) {
    const workload::ZipfianKeys keys(kKeys, theta);
    std::array<int, kKeys> h{};
    Rng rng(7);
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t k = keys(rng);
      EXPECT_LT(k, kKeys);
      ++h[k];
    }
    return h;
  };

  const auto uniform = histogram(0.0);
  const auto skewed = histogram(0.99);

  // theta = 0 degenerates to uniform: no key takes a large multiple of
  // its fair share.
  constexpr double kFair = static_cast<double>(kDraws) / kKeys;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_LT(uniform[k], 2.0 * kFair) << "key " << k;
  }
  // theta = 0.99: key 0 is hot (many times its fair share) and the
  // head dominates the tail.
  EXPECT_GT(skewed[0], 5.0 * kFair);
  // Zipf(0.99) over 64 keys gives the top four keys ~45% of the mass
  // (vs 6.25% uniform).
  const int head = skewed[0] + skewed[1] + skewed[2] + skewed[3];
  EXPECT_GT(head, kDraws / 3);
  EXPECT_GT(skewed[0], skewed[kKeys - 1]);
}

TEST(KeyedStreams, ZipfianIsDeterministicAndHandlesOneKey) {
  const workload::ZipfianKeys a(64, 0.99), b(64, 0.99);
  Rng ra(99), rb(99);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(a(ra), b(rb));

  const workload::ZipfianKeys one(1, 0.5);
  Rng r(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(one(r), 0u);
}

TEST(KeyedStreams, ZetaIsMemoizedAcrossIdenticalConstructions) {
  // Sweeps construct one generator per (threads x reps) cell with the
  // SAME (keys, theta); only the first construction may pay the O(keys)
  // harmonic sum. A distinctive parameter pair keeps this test
  // independent of whichever generators ran before it in the process.
  constexpr std::uint64_t kKeys = 977;  // prime, used nowhere else
  constexpr double kTheta = 0.123456789;

  const std::uint64_t before = workload::ZipfianKeys::zeta_computations();
  const workload::ZipfianKeys first(kKeys, kTheta);
  const std::uint64_t after_first = workload::ZipfianKeys::zeta_computations();
  // The first construction computes zeta(keys, theta) and zeta(2,
  // theta) — at most two evaluations, at least one.
  EXPECT_GE(after_first, before + 1);
  EXPECT_LE(after_first, before + 2);

  // Every later identical construction is a pure cache lookup.
  for (int i = 0; i < 16; ++i) {
    const workload::ZipfianKeys again(kKeys, kTheta);
    (void)again;
  }
  EXPECT_EQ(workload::ZipfianKeys::zeta_computations(), after_first);

  // The memo is keyed on the exact pair: a different theta computes.
  const workload::ZipfianKeys other(kKeys, 0.5);
  (void)other;
  EXPECT_GT(workload::ZipfianKeys::zeta_computations(), after_first);

  // Memoized and fresh generators draw identical streams.
  const workload::ZipfianKeys memoized(kKeys, kTheta);
  Rng ra(7), rb(7);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(first(ra), memoized(rb));
}

}  // namespace
}  // namespace scm