// Adaptive composition: closed-loop runtime tuning of a combining
// object's election and wait knobs.
//
// The paper's central observation is that composition has a COST that
// scales with contention — which means the best combiner election
// aggressiveness and wait rung are a function of the OBSERVED
// workload, not a compile-time constant. Combining already measures
// that cost per run: fastpath_share and ops_per_combine from its
// election, park/fast-wake ratios from its WaitPoint rung. This layer
// closes the loop: Adaptive<Obj> wraps a combining object, samples
// those counters every window of operations through a
// ContentionMonitor (EWMA-smoothed deltas), and drives the two
// actuators Combining exposes as relaxed runtime knobs:
//
//   signal (EWMA over window)      actuator
//   contention sustained high  ->  Combining::set_elect_spins(0):
//                                  stop fighting for the lock,
//                                  publish and amortize into batches
//   ops_per_combine     ~1     ->  set_elect_spins(1): batching buys
//                                  nothing, restore the TAS fast path
//   park_ratio          high   ->  set_yields_before_park(1): waiters
//                                  lose the spin anyway, park early
//   park_ratio          low    ->  restore the default yield rung
//
// Cost discipline: the per-op overhead is one relaxed fetch_add on
// the CALLER's own padded op-count cell (indexed by ctx.id(), so no
// line is written by two threads unless ids collide), and all
// sampling/decision work runs once per window on the single thread
// that wins the tick lock. Every atomic load in this header is
// memory_order_relaxed — the monitor must never add a fence to the
// fast path it is observing (tools/scm_lint.py enforces exactly that
// for this file). Decisions are hints applied to relaxed knobs; no
// operation's correctness ever
// depends on seeing a reconfiguration, so adaptive_test's equivalence
// cases can pin Adaptive<Obj> bit-identical to the bare Obj.
//
// Determinism: monitor ticks are compiled out for non-blocking
// contexts (context_can_block_v), so simulator-driven exploration
// never observes wall-clock-dependent reconfiguration and every
// sim-backed proof about Obj applies verbatim to Adaptive<Obj>.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "core/async.hpp"
#include "core/batch.hpp"
#include "core/module.hpp"
#include "core/sharding.hpp"
#include "history/request.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"

namespace scm {

// One cumulative telemetry snapshot of the wrapped object, in the
// units Combining already exports.
struct MonitorSample {
  std::uint64_t direct_ops = 0;
  std::uint64_t combined_ops = 0;
  std::uint64_t combine_rounds = 0;
  std::uint64_t parks = 0;
  std::uint64_t fast_wakes = 0;
};

// EWMA-smoothed window signals derived from MonitorSample deltas.
struct ContentionSignals {
  double fastpath_share = 1.0;   // direct / (direct + combined)
  double ops_per_combine = 0.0;  // combined / rounds (0: no batching)
  double park_ratio = 0.0;       // parks / (parks + fast wakes)
};

// Differencing + smoothing over cumulative snapshots. Pure arithmetic
// on values the caller sampled — no atomics, no knowledge of the
// monitored object — so unit tests drive it with synthetic counter
// streams. Windows with zero operations are ignored entirely (no
// evidence, no decay): an idle stretch must not drag the signals
// toward "uncontended".
class ContentionMonitor {
 public:
  // EWMA weight of the newest window.
  static constexpr double kAlpha = 0.5;

  // Feeds the next cumulative snapshot; returns whether the window
  // contained any operations (and therefore updated the signals).
  bool observe(const MonitorSample& cum) {
    const MonitorSample d{
        cum.direct_ops - prev_.direct_ops,
        cum.combined_ops - prev_.combined_ops,
        cum.combine_rounds - prev_.combine_rounds,
        cum.parks - prev_.parks,
        cum.fast_wakes - prev_.fast_wakes,
    };
    prev_ = cum;
    const std::uint64_t ops = d.direct_ops + d.combined_ops;
    if (ops == 0) return false;
    const double fast =
        static_cast<double>(d.direct_ops) / static_cast<double>(ops);
    const double opc =
        d.combine_rounds == 0
            ? 0.0
            : static_cast<double>(d.combined_ops) /
                  static_cast<double>(d.combine_rounds);
    const std::uint64_t waits = d.parks + d.fast_wakes;
    const double pr = waits == 0 ? 0.0
                                 : static_cast<double>(d.parks) /
                                       static_cast<double>(waits);
    if (windows_ == 0) {
      sig_ = {fast, opc, pr};
    } else {
      sig_.fastpath_share = mix(sig_.fastpath_share, fast);
      sig_.ops_per_combine = mix(sig_.ops_per_combine, opc);
      sig_.park_ratio = mix(sig_.park_ratio, pr);
    }
    ++windows_;
    return true;
  }

  [[nodiscard]] const ContentionSignals& signals() const noexcept {
    return sig_;
  }
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }

 private:
  [[nodiscard]] static double mix(double old_v, double new_v) noexcept {
    return kAlpha * new_v + (1.0 - kAlpha) * old_v;
  }

  MonitorSample prev_{};
  ContentionSignals sig_{};
  std::uint64_t windows_ = 0;
};

// The knob vector a decision produces / the actuators consume.
struct AdaptiveTuning {
  std::uint32_t elect_spins = 1;
  int yields_before_park = kYieldsBeforePark;

  friend bool operator==(const AdaptiveTuning&,
                         const AdaptiveTuning&) = default;
};

// Decision thresholds. The defaults encode the hysteresis that keeps
// the loop stable: the publish/republish and park bands do not
// overlap, so a signal sitting between them changes nothing.
struct AdaptivePolicy {
  double publish_contention = 0.60;  // above: elect_spins -> 0
  double republish_batch = 1.5;      // ops/combine below: spins -> 1
  double park_hi = 0.50;             // park_ratio above: park early
  double park_lo = 0.05;             // below: default yield rung
};

// The decision function: PURE — current tuning + signals in, next
// tuning out — so adaptive_test enumerates its behavior without
// threads.
[[nodiscard]] inline AdaptiveTuning adapt_decide(const AdaptivePolicy& p,
                                                 const ContentionSignals& s,
                                                 AdaptiveTuning cur) {
  AdaptiveTuning next = cur;
  const double contention = 1.0 - s.fastpath_share;

  // Actuator 1: combiner election. Under sustained contention stop
  // fighting for the lock — publish and let one combiner amortize.
  // Recovery keys on the achieved batch size, NOT fastpath_share: at
  // elect_spins == 0 the fast path is off by construction, so its
  // share is 0 whatever the load. Batches near one op mean the
  // amortization buys nothing — restore the direct path.
  if (cur.elect_spins > 0) {
    if (contention > p.publish_contention) next.elect_spins = 0;
  } else if (s.ops_per_combine < p.republish_batch) {
    next.elect_spins = 1;
  }

  // Actuator 2: wait-rung selection. Waiters that mostly end up
  // parking anyway should stop burning yields first; waiters that
  // almost never park get the full user-space ladder back.
  if (s.park_ratio > p.park_hi) {
    next.yields_before_park = 1;
  } else if (s.park_ratio < p.park_lo) {
    next.yields_before_park = kYieldsBeforePark;
  }
  return next;
}

// Adaptive<Obj>: forwards the entire Composable surface of Obj
// unchanged, ticking the ContentionMonitor once per kWindowOps
// operations of each caller (blocking contexts only; across N busy
// callers that is still one tick per ~kWindowOps operations overall)
// and applying adapt_decide()'s tuning through Obj's two actuators.
// Obj must expose the knobs and counters Combining does; wrapping
// anything else (a Sharded, a bare pipeline) fails to compile instead
// of silently tuning nothing.
template <class Obj>
  requires requires(Obj& o, const Obj& c) {
    o.set_elect_spins(std::uint32_t{1});
    { c.elect_spins() } -> std::convertible_to<std::uint32_t>;
    o.set_yields_before_park(1);
    { c.yields_before_park() } -> std::convertible_to<int>;
    { c.direct_ops() } -> std::convertible_to<std::uint64_t>;
    { c.combined_ops() } -> std::convertible_to<std::uint64_t>;
    { c.combine_rounds() } -> std::convertible_to<std::uint64_t>;
    { c.park_stats() } -> std::same_as<ParkStats>;
  }
class Adaptive : public detail::ShardedConsensusBase<Obj>,
                 public detail::ShardedDepthBase<Obj> {
 public:
  // Power-of-two so the window boundary test is one mask.
  static constexpr std::uint64_t kWindowOps = 1024;
  // Per-caller op-count cells; callers whose ids collide modulo this
  // share a cell (exactly, via fetch_add) and tick on their joint count.
  static constexpr std::size_t kOpCountCells = 16;

  Adaptive()
    requires std::is_default_constructible_v<Obj>
      : obj_{} {}

  template <class... Args>
  explicit Adaptive(std::in_place_t, Args&&... args)
      : obj_(std::in_place, std::forward<Args>(args)...) {}

  Adaptive(const Adaptive&) = delete;
  Adaptive& operator=(const Adaptive&) = delete;

  // ---- module surface.

  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    maybe_tick(ctx);
    return scm::apply(obj_.value, ctx, m, init);
  }

  template <class Ctx>
  void invoke_batch(Ctx& ctx, std::span<OpSlot> batch)
    requires requires(Obj& o) { o.invoke_batch(ctx, batch); }
  {
    maybe_tick(ctx);
    obj_.value.invoke_batch(ctx, batch);
  }

  // ---- async surface: one forward per arity shape Obj accepts, so
  // ticket types, callbacks, and overload resolution all match the
  // bare object's exactly.

  template <class Ctx, class... Args>
  auto submit(Ctx& ctx, const Request& m, Args&&... args)
    requires requires(Obj& o) { o.submit(ctx, m, std::forward<Args>(args)...); }
  {
    maybe_tick(ctx);
    return obj_.value.submit(ctx, m, std::forward<Args>(args)...);
  }

  template <class Ctx>
  void drain(Ctx& ctx)
    requires requires(Obj& o) { o.drain(ctx); }
  {
    obj_.value.drain(ctx);
  }

  // ---- adaptation introspection.

  // Tuning changes applied so far.
  [[nodiscard]] std::uint64_t decisions() const noexcept {
    return decisions_.load(std::memory_order_relaxed);
  }

  // The knob vector as the actuators currently hold it.
  [[nodiscard]] AdaptiveTuning tuning() const noexcept {
    return {obj_.value.elect_spins(), obj_.value.yields_before_park()};
  }

  [[nodiscard]] const ContentionSignals& signals() const noexcept {
    return monitor_.signals();
  }
  [[nodiscard]] std::uint64_t windows() const noexcept {
    return monitor_.windows();
  }

  [[nodiscard]] Obj& object() noexcept { return obj_.value; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_.value; }

  // ---- forwarded combining telemetry, so an Adaptive slot anywhere
  // in a stack keeps the layers above it informed.

  [[nodiscard]] std::uint64_t direct_ops() const noexcept {
    return obj_.value.direct_ops();
  }
  [[nodiscard]] std::uint64_t combined_ops() const noexcept {
    return obj_.value.combined_ops();
  }
  [[nodiscard]] std::uint64_t combine_rounds() const noexcept {
    return obj_.value.combine_rounds();
  }
  [[nodiscard]] ParkStats park_stats() const noexcept {
    return obj_.value.park_stats();
  }

 private:
  // The per-op hook: one relaxed fetch_add on the caller's own cell;
  // when that cell crosses a window boundary its thread tries the tick
  // lock and does the sampling/decision work, everyone else proceeds
  // untouched. Compiled out entirely for contexts that cannot block
  // (the deterministic simulator).
  template <class Ctx>
  void maybe_tick(Ctx& ctx) {
    (void)ctx;
    if constexpr (context_can_block_v<Ctx>) {
      auto& cell =
          op_counts_[static_cast<std::size_t>(ctx.id()) % kOpCountCells].value;
      const std::uint64_t n = cell.fetch_add(1, std::memory_order_relaxed) + 1;
      if ((n & (kWindowOps - 1)) != 0) return;
      if (tick_lock_.exchange(true, std::memory_order_acquire)) return;
      tick();
      tick_lock_.store(false, std::memory_order_release);
    }
  }

  // One monitor window: sample cumulative telemetry, difference +
  // smooth, decide, actuate. Runs under tick_lock_, so the monitor
  // state and the actuators are single-writer.
  void tick() {
    const ParkStats ps = obj_.value.park_stats();
    if (!monitor_.observe({obj_.value.direct_ops(), obj_.value.combined_ops(),
                           obj_.value.combine_rounds(), ps.parks,
                           ps.fast_wakes})) {
      return;
    }
    const AdaptiveTuning cur = tuning();
    const AdaptiveTuning next = adapt_decide(policy_, monitor_.signals(), cur);
    if (next == cur) return;
    if (next.elect_spins != cur.elect_spins) {
      obj_.value.set_elect_spins(next.elect_spins);
    }
    if (next.yields_before_park != cur.yields_before_park) {
      obj_.value.set_yields_before_park(next.yields_before_park);
    }
    decisions_.fetch_add(1, std::memory_order_relaxed);
  }

  Padded<Obj> obj_;
  // The op counters are the only per-op hot writes; one padded cell per
  // caller, so no line is written by two callers and none shares a
  // line with monitor state.
  std::array<Padded<std::atomic<std::uint64_t>>, kOpCountCells> op_counts_{};
  std::atomic<bool> tick_lock_{false};
  std::atomic<std::uint64_t> decisions_{0};
  ContentionMonitor monitor_{};
  AdaptivePolicy policy_{};
};

}  // namespace scm
