// Tests for the adaptive composition layer (core/adaptive.hpp):
//
//  * Adaptive<Obj> is a Composable module, inherits the wrapped
//    object's consensus number, compiles its monitor tick out for
//    awaitable (simulator) contexts, and accepts only objects with
//    Combining's knobs and counters;
//  * solo equivalence: every invoke/submit response through
//    Adaptive<Obj> is bit-identical to the bare Obj's, on the wait and
//    the poll path — decisions are hints to relaxed knobs, never
//    semantics;
//  * ContentionMonitor: first window seeds the EWMA directly, later
//    windows mix at kAlpha, zero-op windows are ignored entirely (idle
//    must not decay the signals);
//  * adapt_decide is pure and enumerable: elect-spin
//    publish/republish keyed on achieved batch size, and the
//    park-ratio wait rung;
//  * the closed loop end to end: a solo caller is observed
//    uncontended, so windows tick and no knob moves;
//  * concurrent histories through Adaptive<Combining> linearize
//    against CounterSpec, a window-crossing storm commits every
//    fetch&inc response exactly once while ticks and decisions fire
//    mid-run, and a thread ramp from 1 to 2x the hardware threads on
//    one object commits every op's hop count and leaves the tuning in
//    range.
//
// Runs under the "tsan" ctest label: the monitor's tick lock and the
// relaxed knob publications are exactly the kind of protocol TSan
// arbitrates.
#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/combining.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "core/sharding.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/context.hpp"
#include "runtime/platform.hpp"
#include "runtime/wait.hpp"
#include "sim/sim_platform.hpp"
#include "workload/driver.hpp"

namespace scm {
namespace {

// The counter module from caching_test: kFetchInc commits the OLD
// value (each response is a unique ticket), kRead the current one.
struct CounterModule {
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    if (m.op == CounterSpec::kRead) {
      return ModuleResult::commit(static_cast<Response>(count_.read(ctx)));
    }
    return ModuleResult::commit(static_cast<Response>(count_.fetch_add(ctx)));
  }

  [[nodiscard]] std::uint64_t peek() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

// Pipeline plumbing for the thread ramp: relays abort with an
// incremented hop count; the sink counts each op it commits and
// commits the hops that reached it.
struct Relay {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }
};

struct HopSink {
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    (void)count_.fetch_add(ctx);
    return ModuleResult::commit(init.value_or(0));
  }

  [[nodiscard]] std::uint64_t peek() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

Request read_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kRead, 0};
}
Request inc_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kFetchInc, 0};
}

using CombStack = Combining<CounterModule, 8>;
using ShardStack = Sharded<CombStack, 4, ByThread>;

// ---------------------------------------------------------------------------
// Static properties

static_assert(Composable<Adaptive<CombStack>, NativeContext>);
static_assert(Adaptive<CombStack>::kConsensusNumber ==
                  kConsensusNumberFetchAdd,
              "the wrapper cannot change consensus power");
static_assert(!std::is_polymorphic_v<Adaptive<CombStack>>);
// Only an object with Combining's knobs and counters can be wrapped:
// a Sharded of combiners or a bare module is rejected at compile time
// rather than silently tuned by no actuator.
template <class T>
concept Adaptable = requires { typename Adaptive<T>; };
static_assert(Adaptable<CombStack>);
static_assert(!Adaptable<ShardStack>);
static_assert(!Adaptable<CounterModule>);
// The tick is compiled out exactly for awaitable contexts: the
// deterministic simulator must never observe wall-clock-dependent
// reconfiguration.
static_assert(!detail::context_can_await_v<NativeContext>);
static_assert(detail::context_can_await_v<sim::SimContext>);

// ---------------------------------------------------------------------------
// Solo equivalence: Adaptive<Obj> == Obj, bit for bit

TEST(Adaptive, SoloInvokeMatchesBareObjectAcrossWindows) {
  // Enough operations to cross several monitor windows, so the
  // equivalence covers ticks and any decisions they apply — not just
  // the quiet stretch before the first boundary.
  constexpr std::uint64_t kOps = 3 * Adaptive<CombStack>::kWindowOps + 17;
  Adaptive<CombStack> adaptive;
  CombStack bare;
  NativeContext ctx(0);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const bool is_read = i % 4 == 3;
    const Request m = is_read ? read_req(i + 1, 0) : inc_req(i + 1, 0);
    const ModuleResult want = bare.invoke(ctx, m);
    const ModuleResult got = adaptive.invoke(ctx, m);
    ASSERT_EQ(got.outcome, want.outcome) << "op " << i;
    ASSERT_EQ(got.response, want.response) << "op " << i;
  }
  EXPECT_EQ(adaptive.object().object().peek(), bare.object().peek());
}

TEST(Adaptive, SoloSubmitMatchesBareObjectTicketForTicket) {
  // Odd ops collect through poll()/try_result() instead of wait(), so
  // both ticket paths are pinned.
  Adaptive<CombStack> adaptive;
  CombStack bare;
  NativeContext ctx(0);
  for (std::uint64_t i = 0; i < 256; ++i) {
    auto want = bare.submit(ctx, inc_req(i + 1, 0));
    auto got = adaptive.submit(ctx, inc_req(i + 1, 0));
    if (i % 2 == 1) {
      while (!got.poll()) {
      }
      const std::optional<ModuleResult> r = got.try_result();
      ASSERT_TRUE(r.has_value()) << "op " << i;
      ASSERT_EQ(r->response, want.wait().response) << "op " << i;
    } else {
      ASSERT_EQ(got.wait().response, want.wait().response) << "op " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// ContentionMonitor: differencing + EWMA + the zero-op window rule

TEST(ContentionMonitorTest, FirstWindowSeedsSignalsDirectly) {
  ContentionMonitor mon;
  EXPECT_EQ(mon.windows(), 0u);
  EXPECT_TRUE(mon.observe({80, 20, 10, 5, 5}));
  EXPECT_EQ(mon.windows(), 1u);
  EXPECT_DOUBLE_EQ(mon.signals().fastpath_share, 0.8);
  EXPECT_DOUBLE_EQ(mon.signals().ops_per_combine, 2.0);
  EXPECT_DOUBLE_EQ(mon.signals().park_ratio, 0.5);
}

TEST(ContentionMonitorTest, LaterWindowsMixAtAlpha) {
  ContentionMonitor mon;
  ASSERT_TRUE(mon.observe({80, 20, 10, 0, 0}));  // seeds fastpath 0.8
  // Second window delta: 0 direct, 100 combined, 25 rounds — raw
  // fastpath 0.0, opc 4.0. At kAlpha 0.5 the EWMA lands halfway.
  ASSERT_TRUE(mon.observe({80, 120, 35, 0, 0}));
  EXPECT_DOUBLE_EQ(mon.signals().fastpath_share, 0.4);
  EXPECT_DOUBLE_EQ(mon.signals().ops_per_combine, 3.0);
  EXPECT_EQ(mon.windows(), 2u);
}

TEST(ContentionMonitorTest, ZeroOpWindowsAreIgnoredNotDecayed) {
  ContentionMonitor mon;
  ASSERT_TRUE(mon.observe({0, 100, 20, 8, 2}));
  const ContentionSignals seeded = mon.signals();
  // An idle stretch: the cumulative counters do not move. No evidence
  // may not drag the signals toward "uncontended".
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(mon.observe({0, 100, 20, 8, 2}));
  }
  EXPECT_EQ(mon.windows(), 1u);
  EXPECT_DOUBLE_EQ(mon.signals().fastpath_share, seeded.fastpath_share);
  EXPECT_DOUBLE_EQ(mon.signals().ops_per_combine, seeded.ops_per_combine);
  EXPECT_DOUBLE_EQ(mon.signals().park_ratio, seeded.park_ratio);
  // Parks moving with zero ops is still not a window (waiters but no
  // completions — no denominator to attribute them to).
  EXPECT_FALSE(mon.observe({0, 100, 20, 50, 2}));
}

// ---------------------------------------------------------------------------
// adapt_decide: pure, enumerable

TEST(AdaptDecide, PublishesUnderContentionRepublishesOnThinBatches) {
  const AdaptivePolicy p;
  ContentionSignals s;
  AdaptiveTuning cur;

  // Sustained contention: stop fighting for the combiner lock.
  s.fastpath_share = 0.3;  // contention 0.7 > publish threshold
  cur.elect_spins = 1;
  EXPECT_EQ(adapt_decide(p, s, cur).elect_spins, 0u);

  // Recovery keys on achieved batch size (fastpath_share is 0 by
  // construction at spins == 0): thin batches restore the TAS path...
  cur.elect_spins = 0;
  s.fastpath_share = 0.0;
  s.ops_per_combine = 1.2;
  EXPECT_EQ(adapt_decide(p, s, cur).elect_spins, 1u);
  // ... while fat batches keep the publish-and-batch mode.
  s.ops_per_combine = 3.0;
  EXPECT_EQ(adapt_decide(p, s, cur).elect_spins, 0u);
}

TEST(AdaptDecide, ParkRatioSelectsTheWaitRung) {
  const AdaptivePolicy p;
  ContentionSignals s;
  AdaptiveTuning cur;

  s.park_ratio = 0.6;  // waiters lose the spin anyway: park early
  EXPECT_EQ(adapt_decide(p, s, cur).yields_before_park, 1);

  cur.yields_before_park = 1;
  s.park_ratio = 0.01;  // almost nobody parks: full ladder back
  EXPECT_EQ(adapt_decide(p, s, cur).yields_before_park,
            kYieldsBeforePark);

  s.park_ratio = 0.2;  // in the band: hold
  EXPECT_EQ(adapt_decide(p, s, cur).yields_before_park, 1);
}

// A bare Combining spins kDefaultElectSpins gate attempts; Adaptive
// starts its object at its own direct value instead, on both
// constructors, and recovery restores that value, not the bare
// default. A solo caller at elect_spins == 0 publishes every op and
// serves it alone, one op per round, so its first window recovers.
TEST(Adaptive, StartsAndRecoversAtItsOwnElectSpinsNotTheBareDefault) {
  constexpr std::uint32_t kDirect = AdaptiveTuning{}.elect_spins;
  static_assert(CombStack::kDefaultElectSpins != kDirect);
  const CombStack bare;
  EXPECT_EQ(bare.elect_spins(), CombStack::kDefaultElectSpins);

  Adaptive<CombStack> adaptive;
  EXPECT_EQ(adaptive.tuning().elect_spins, kDirect);
  const Adaptive<CombStack> in_place(std::in_place);
  EXPECT_EQ(in_place.tuning().elect_spins, kDirect);

  const AdaptivePolicy p;
  ContentionSignals s;
  s.fastpath_share = 0.3;
  AdaptiveTuning cur = adapt_decide(p, s, adaptive.tuning());
  ASSERT_EQ(cur.elect_spins, 0u);
  s.fastpath_share = 0.0;
  s.ops_per_combine = 1.0;
  EXPECT_EQ(adapt_decide(p, s, cur).elect_spins, kDirect);

  adaptive.object().set_elect_spins(0);
  NativeContext ctx(0);
  for (std::uint64_t i = 0; i < Adaptive<CombStack>::kWindowOps; ++i) {
    ASSERT_TRUE(adaptive.invoke(ctx, inc_req(i + 1, 0)).committed());
  }
  EXPECT_EQ(adaptive.windows(), 1u);
  EXPECT_EQ(adaptive.decisions(), 1u);
  EXPECT_EQ(adaptive.tuning().elect_spins, kDirect);
}

// ---------------------------------------------------------------------------
// The closed loop, end to end (deterministic direction)

TEST(Adaptive, SoloCallerTicksWindowsAndMovesNoKnob) {
  // One thread: every window observes fastpath_share == 1 and no
  // parks, so the monitor ticks but the signals give no reason to move
  // either knob — no decision, no oscillation.
  Adaptive<CombStack> adaptive;
  const AdaptiveTuning before = adaptive.tuning();
  EXPECT_EQ(before.elect_spins, 1u);
  EXPECT_EQ(before.yields_before_park, kYieldsBeforePark);

  NativeContext ctx(0);
  constexpr std::uint64_t kOps = 3 * Adaptive<CombStack>::kWindowOps;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(adaptive.invoke(ctx, inc_req(i + 1, 0)).committed());
  }

  EXPECT_EQ(adaptive.windows(), 3u);
  EXPECT_DOUBLE_EQ(adaptive.signals().fastpath_share, 1.0);
  EXPECT_EQ(adaptive.decisions(), 0u);
  EXPECT_EQ(adaptive.tuning(), before);
  EXPECT_EQ(adaptive.object().object().peek(), kOps);
}

// ---------------------------------------------------------------------------
// Concurrent equivalence

TEST(Adaptive, ConcurrentHistoriesLinearizeAgainstCounterSpec) {
  // 3 threads x 5 ops of mixed reads and fetch&incs through
  // Adaptive<Combining>: every response must admit a linearization
  // against CounterSpec — the wrapper may tune, never reorder. Trace
  // sizes stay small: the checker is exponential in overlap.
  constexpr int kThreads = 3;
  constexpr std::uint64_t kOps = 5;

  for (int round = 0; round < 10; ++round) {
    Adaptive<CombStack> adaptive;
    std::atomic<std::uint64_t> clock{0};
    struct Recorded {
      Response response = 0;
      std::uint64_t invoke = 0;
      std::uint64_t ret = 0;
      std::int64_t op = 0;
    };
    std::array<std::array<Recorded, kOps>, kThreads> rec{};

    (void)workload::run_threads(
        kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
          const auto tid = static_cast<std::size_t>(ctx.id());
          const bool is_read = tid == 0 ? (i % 2 == 1) : (i % 4 != 3);
          const std::uint64_t id =
              (static_cast<std::uint64_t>(tid) << 40) | (i + 1);
          const Request m =
              is_read ? read_req(id, ctx.id()) : inc_req(id, ctx.id());
          Recorded& r = rec[tid][i];
          r.op = m.op;
          r.invoke = clock.fetch_add(1, std::memory_order_acq_rel);
          r.response = adaptive.invoke(ctx, m).response;
          r.ret = clock.fetch_add(1, std::memory_order_acq_rel);
        });

    std::vector<ConcurrentOp> ops;
    for (int t = 0; t < kThreads; ++t) {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const auto& r =
            rec[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        ConcurrentOp op;
        op.pid = static_cast<ProcessId>(t);
        op.request = Request{(static_cast<std::uint64_t>(t) << 40) | (i + 1),
                             static_cast<ProcessId>(t), r.op, 0};
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

TEST(Adaptive, WindowCrossingStormCommitsEveryTicketExactlyOnce) {
  // 4 threads crossing many window boundaries: ticks, decisions, and
  // knob publications all fire mid-run, and still every fetch&inc
  // response (the OLD value — a unique ticket) is seen exactly once.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 2048;
  constexpr std::uint64_t kTotal = kThreads * kOps;

  Adaptive<CombStack> adaptive;
  std::vector<std::atomic<std::uint32_t>> seen(kTotal);
  std::atomic<std::uint64_t> out_of_range{0};

  (void)workload::run_threads(
      kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
        const std::uint64_t id =
            (static_cast<std::uint64_t>(ctx.id()) << 40) | (i + 1);
        const ModuleResult r = adaptive.invoke(ctx, inc_req(id, ctx.id()));
        ASSERT_TRUE(r.committed());
        if (r.response < 0 ||
            r.response >= static_cast<Response>(kTotal)) {
          out_of_range.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        seen[static_cast<std::size_t>(r.response)].fetch_add(
            1, std::memory_order_relaxed);
      });

  EXPECT_EQ(out_of_range.load(), 0u);
  for (std::uint64_t v = 0; v < kTotal; ++v) {
    ASSERT_EQ(seen[static_cast<std::size_t>(v)].load(), 1u) << "ticket " << v;
  }
  EXPECT_EQ(adaptive.object().object().peek(), kTotal);
  // The storm crossed window boundaries, so the monitor demonstrably
  // ran while the equivalence above held.
  EXPECT_GE(adaptive.windows(), 1u);
}

TEST(Adaptive, ThreadRampCommitsEveryHopAndKeepsTuningInRange) {
  // One object under a doubling thread ramp from 1 to twice the
  // hardware threads (capped so huge hosts stay quick): the monitor
  // sees the load change under it and may retune mid-run, yet every
  // op commits the full three-relay hop count, the sink counts exactly
  // the ops offered, and each knob ends on a value its actuator can
  // set.
  using RampStack =
      Adaptive<Combining<FastPipeline<Relay, Relay, Relay, HopSink>, 8>>;
  constexpr std::uint64_t kOps = 2 * RampStack::kWindowOps;
  const int top = static_cast<int>(
      std::clamp(2 * std::thread::hardware_concurrency(), 2u, 32u));

  RampStack adaptive;
  std::uint64_t offered = 0;
  std::atomic<std::uint64_t> bad{0};
  for (int threads = 1; threads <= top; threads *= 2) {
    (void)workload::run_threads(
        threads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
          const std::uint64_t id =
              (static_cast<std::uint64_t>(ctx.id()) << 40) | (i + 1);
          const ModuleResult r = adaptive.invoke(ctx, inc_req(id, ctx.id()));
          if (!r.committed() || r.response != 3) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        });
    offered += static_cast<std::uint64_t>(threads) * kOps;
  }

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(adaptive.object().object().stage<3>().peek(), offered);
  EXPECT_GE(adaptive.windows(), 1u);
  const AdaptiveTuning t = adaptive.tuning();
  EXPECT_TRUE(t.elect_spins == 0 || t.elect_spins == 1) << t.elect_spins;
  EXPECT_TRUE(t.yields_before_park == 1 ||
              t.yields_before_park == kYieldsBeforePark)
      << t.yields_before_park;
}

}  // namespace
}  // namespace scm
