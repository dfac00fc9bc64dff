// Adaptive composition: closed-loop runtime tuning of the composition
// stack (the self-tuning counterpart of the static sweeps every
// compose.* scenario runs).
//
// The paper's central observation is that composition has a COST that
// scales with contention and structure — which means the best
// composition (shard fan-out, combiner election aggressiveness, wait
// rung) is a function of the OBSERVED workload, not a compile-time
// constant. Nine PRs of telemetry already measure that cost per run:
// fastpath_share and ops_per_combine from Combining, per-shard load
// from Sharded, park/fast-wake ratios from the WaitPoint rung. This
// layer closes the loop: Adaptive<Obj> wraps any Composable object,
// samples those counters every window of operations through a
// ContentionMonitor (EWMA-smoothed deltas), and drives three
// actuators the layers below expose as relaxed runtime knobs:
//
//   signal (EWMA over window)      actuator
//   1 - fastpath_share  high   ->  Sharded::set_active_shards: grow
//                                  (double, spread the load)
//   1 - fastpath_share  low    ->  shrink toward the shards actually
//                                  used (concentrate, cache locality)
//   contention sustained high  ->  Combining::set_elect_spins(0):
//                                  stop fighting for the lock,
//                                  publish and amortize into batches
//   ops_per_combine     ~1     ->  set_elect_spins(1): batching buys
//                                  nothing, restore the TAS fast path
//   park_ratio          high   ->  set_yields_before_park(1): waiters
//                                  lose the spin anyway, park early
//   park_ratio          low    ->  restore the default yield rung
//
// Cost discipline: when adaptation is DISABLED the per-op overhead is
// one relaxed load; when enabled it is one relaxed load plus one
// relaxed fetch_add on the CALLER's own padded op-count cell (indexed
// by ctx.id(), so no line is written by two threads unless ids
// collide), and all sampling/decision work runs once per window on the
// single thread that wins the tick lock. Every atomic load in this
// header is memory_order_relaxed — the monitor must never add a fence
// to the fast path it is observing (tools/scm_lint.py enforces exactly
// that for this file). Decisions are
// hints applied to relaxed knobs; no operation's correctness ever
// depends on seeing a reconfiguration, so the equivalence gates
// (adaptive_test, compose.adaptive's solo probes) can pin
// Adaptive<Obj> bit-identical to the bare Obj.
//
// Determinism: monitor ticks are compiled out for non-blocking
// contexts (context_can_block_v), so simulator-driven exploration
// never observes wall-clock-dependent reconfiguration and every
// sim-backed proof about Obj applies verbatim to Adaptive<Obj>.
#pragma once

#include <algorithm>
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
#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"

namespace scm {

// One cumulative telemetry snapshot of the wrapped stack, in the units
// the layers already export. Missing surfaces (an Obj without
// combining telemetry) simply stay zero — the monitor then sees a
// permanently uncontended object, and every decision is a no-op.
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
// toward "uncontended" and trigger a bogus shrink.
class ContentionMonitor {
 public:
  explicit ContentionMonitor(double alpha = 0.5) : alpha_(alpha) {
    SCM_CHECK_MSG(alpha > 0.0 && alpha <= 1.0,
                  "EWMA alpha must be in (0, 1]");
  }

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
  [[nodiscard]] double mix(double old_v, double new_v) const noexcept {
    return alpha_ * new_v + (1.0 - alpha_) * old_v;
  }

  double alpha_;
  MonitorSample prev_{};
  ContentionSignals sig_{};
  std::uint64_t windows_ = 0;
};

// The knob vector a decision produces / the actuators consume.
struct AdaptiveTuning {
  std::size_t active_shards = 1;
  std::uint32_t elect_spins = 1;
  int yields_before_park = kYieldsBeforePark;

  friend bool operator==(const AdaptiveTuning&,
                         const AdaptiveTuning&) = default;
};

// Decision thresholds. The defaults encode the hysteresis that keeps
// the loop stable: grow/shrink and publish/republish bands do not
// overlap, so a signal sitting between them changes nothing.
struct AdaptivePolicy {
  double grow_contention = 0.50;     // 1-fastpath above: double shards
  double shrink_contention = 0.10;   // below: shrink toward used shards
  double publish_contention = 0.60;  // above: elect_spins -> 0
  double republish_batch = 1.5;      // ops/combine below: spins -> 1
  double park_hi = 0.50;             // park_ratio above: park early
  double park_lo = 0.05;             // below: default yield rung
};

// Smallest power of two >= n (n >= 1): shrink targets stay powers of
// two so modulo policies keep spreading threads evenly.
[[nodiscard]] constexpr std::size_t pow2_at_least(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// The decision function: PURE — current tuning + signals in, next
// tuning out — so adaptive_test enumerates its behavior without
// threads. `used_shards` is the number of active shards that served
// at least one op last window: it disambiguates "fastpath_share == 1
// because one thread owns one shard" from "== 1 because N threads
// each own their shard", which raw contention cannot (both look
// uncontended; only the former should shrink).
[[nodiscard]] inline AdaptiveTuning adapt_decide(const AdaptivePolicy& p,
                                                 const ContentionSignals& s,
                                                 AdaptiveTuning cur,
                                                 std::size_t max_shards,
                                                 std::size_t used_shards) {
  AdaptiveTuning next = cur;
  const double contention = 1.0 - s.fastpath_share;

  // Actuator 1: effective shard count. Grow by doubling under real
  // contention; shrink only when the fast path dominates AND fewer
  // shards than active actually served work.
  if (contention > p.grow_contention && cur.active_shards < max_shards) {
    next.active_shards = std::min(max_shards, cur.active_shards * 2);
  } else if (contention < p.shrink_contention) {
    const std::size_t target =
        std::min(cur.active_shards,
                 pow2_at_least(used_shards == 0 ? 1 : used_shards));
    next.active_shards = target;
  }

  // Actuator 2: combiner election. Under sustained contention stop
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

  // Actuator 3: wait-rung selection. Waiters that mostly end up
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
// and applying adapt_decide()'s tuning through whichever actuators Obj
// structurally exposes. Wraps
// anything — Combining, Sharded<Combining>, a bare pipeline (every
// actuator then compiles out and only the op counter remains).
template <class Obj>
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

  template <class Ctx, class... Args>
  void submit_detached(Ctx& ctx, const Request& m, Args&&... args)
    requires requires(Obj& o) {
      o.submit_detached(ctx, m, std::forward<Args>(args)...);
    }
  {
    maybe_tick(ctx);
    obj_.value.submit_detached(ctx, m, std::forward<Args>(args)...);
  }

  template <class Ctx>
  void drain(Ctx& ctx)
    requires requires(Obj& o) { o.drain(ctx); }
  {
    obj_.value.drain(ctx);
  }

  // ---- adaptation control & introspection.

  // Adaptation is ON by default — wrapping in Adaptive IS the opt-in —
  // and can be turned off at runtime, which reduces the wrapper's
  // per-op cost to one relaxed load (the zero-overhead configuration
  // the --compare baselines gate).
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Tuning changes applied so far, and the global op count (summed
  // over the callers' cells) at the most recent one — the "time to
  // converge" numerator compose.adaptive reports (a converged run
  // stops deciding, so this stops moving).
  [[nodiscard]] std::uint64_t decisions() const noexcept {
    return decisions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t last_change_ops() const noexcept {
    return last_change_ops_.load(std::memory_order_relaxed);
  }

  // The knob vector as the actuators currently hold it (defaults for
  // actuators Obj does not expose).
  [[nodiscard]] AdaptiveTuning tuning() const noexcept {
    AdaptiveTuning t;
    if constexpr (kHasShardActuator) {
      t.active_shards = obj_.value.active_shards();
    }
    if constexpr (kHasElectActuator) {
      t.elect_spins = obj_.value.elect_spins();
    }
    if constexpr (kHasWaitActuator) {
      t.yields_before_park = obj_.value.yields_before_park();
    }
    return t;
  }

  [[nodiscard]] const ContentionSignals& signals() const noexcept {
    return monitor_.signals();
  }
  [[nodiscard]] std::uint64_t windows() const noexcept {
    return monitor_.windows();
  }

  [[nodiscard]] Obj& object() noexcept { return obj_.value; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_.value; }

  // ---- forwarded statistics surfaces, so an Adaptive slot anywhere
  // in a stack keeps the layers above it fully informed.

  [[nodiscard]] std::uint64_t direct_ops() const noexcept
    requires requires(const Obj& o) { o.direct_ops(); }
  {
    return obj_.value.direct_ops();
  }

  [[nodiscard]] std::uint64_t combined_ops() const noexcept
    requires requires(const Obj& o) { o.combined_ops(); }
  {
    return obj_.value.combined_ops();
  }

  [[nodiscard]] std::uint64_t combine_rounds() const noexcept
    requires requires(const Obj& o) { o.combine_rounds(); }
  {
    return obj_.value.combine_rounds();
  }

  [[nodiscard]] ParkStats park_stats() const noexcept
    requires requires(const Obj& o) {
      { o.park_stats() } -> std::same_as<ParkStats>;
    }
  {
    return obj_.value.park_stats();
  }

  [[nodiscard]] PipelineStageStats stats(std::size_t i) const
    requires requires(const Obj& o, std::size_t j) {
      { o.stats(j) } -> std::same_as<PipelineStageStats>;
    }
  {
    return obj_.value.stats(i);
  }

  [[nodiscard]] std::uint64_t commits_by(ProcessId pid, std::size_t i) const
    requires requires(const Obj& o, std::size_t j) { o.commits_by(pid, j); }
  {
    return obj_.value.commits_by(pid, i);
  }

  [[nodiscard]] int consensus_number() const
    requires requires(const Obj& o) { o.consensus_number(); }
  {
    return obj_.value.consensus_number();
  }

 private:
  static constexpr bool kHasShardActuator = requires(Obj& o) {
    o.set_active_shards(std::size_t{1});
    { o.active_shards() } -> std::convertible_to<std::size_t>;
  };
  static constexpr bool kHasElectActuator = requires(Obj& o) {
    o.set_elect_spins(std::uint32_t{1});
    { o.elect_spins() } -> std::convertible_to<std::uint32_t>;
  };
  static constexpr bool kHasWaitActuator = requires(Obj& o) {
    o.set_yields_before_park(1);
    { o.yields_before_park() } -> std::convertible_to<int>;
  };

  [[nodiscard]] static constexpr std::size_t max_shards() noexcept {
    if constexpr (requires { Obj::kShardCount; }) {
      return Obj::kShardCount;
    } else {
      return 1;
    }
  }

  // Per-shard activity tracking needs per-shard telemetry.
  static constexpr bool kHasShardTelemetry = requires(const Obj& o) {
    Obj::kShardCount;
    o.shard(std::size_t{0}).direct_ops();
    o.shard(std::size_t{0}).combined_ops();
  };

  // The per-op hook. Disabled: one relaxed load. Enabled: one relaxed
  // load + one relaxed fetch_add on the caller's own cell; when that
  // cell crosses a window boundary its thread tries the tick lock and
  // does the sampling/decision work, everyone else proceeds untouched.
  // Compiled out entirely for contexts that cannot block (the
  // deterministic simulator).
  template <class Ctx>
  void maybe_tick(Ctx& ctx) {
    (void)ctx;
    if constexpr (context_can_block_v<Ctx>) {
      if (!enabled_.load(std::memory_order_relaxed)) return;
      auto& cell =
          op_counts_[static_cast<std::size_t>(ctx.id()) % kOpCountCells].value;
      const std::uint64_t n = cell.fetch_add(1, std::memory_order_relaxed) + 1;
      if ((n & (kWindowOps - 1)) != 0) return;
      if (tick_lock_.exchange(true, std::memory_order_acquire)) return;
      tick();
      tick_lock_.store(false, std::memory_order_release);
    }
  }

  // Operations counted across every caller's cell (tick-time only).
  [[nodiscard]] std::uint64_t total_ops() const noexcept {
    std::uint64_t n = 0;
    for (const auto& cell : op_counts_) {
      n += cell.value.load(std::memory_order_relaxed);
    }
    return n;
  }

  // One monitor window: sample cumulative telemetry, difference +
  // smooth, decide, actuate. Runs under tick_lock_, so the monitor
  // state and the actuators are single-writer.
  void tick() {
    MonitorSample cum;
    if constexpr (requires(const Obj& o) { o.direct_ops(); }) {
      cum.direct_ops = obj_.value.direct_ops();
    }
    if constexpr (requires(const Obj& o) { o.combined_ops(); }) {
      cum.combined_ops = obj_.value.combined_ops();
    }
    if constexpr (requires(const Obj& o) { o.combine_rounds(); }) {
      cum.combine_rounds = obj_.value.combine_rounds();
    }
    if constexpr (requires(const Obj& o) {
                    { o.park_stats() } -> std::same_as<ParkStats>;
                  }) {
      const ParkStats ps = obj_.value.park_stats();
      cum.parks = ps.parks;
      cum.fast_wakes = ps.fast_wakes;
    }
    const std::size_t used = used_shards();
    if (!monitor_.observe(cum)) return;
    const AdaptiveTuning cur = tuning();
    const AdaptiveTuning next =
        adapt_decide(policy_, monitor_.signals(), cur, max_shards(), used);
    if (next == cur) return;
    if constexpr (kHasShardActuator) {
      if (next.active_shards != cur.active_shards) {
        obj_.value.set_active_shards(next.active_shards);
      }
    }
    if constexpr (kHasElectActuator) {
      if (next.elect_spins != cur.elect_spins) {
        obj_.value.set_elect_spins(next.elect_spins);
      }
    }
    if constexpr (kHasWaitActuator) {
      if (next.yields_before_park != cur.yields_before_park) {
        obj_.value.set_yields_before_park(next.yields_before_park);
      }
    }
    decisions_.fetch_add(1, std::memory_order_relaxed);
    last_change_ops_.store(total_ops(), std::memory_order_relaxed);
  }

  // Active shards that served at least one op since the last window
  // (per-shard cumulative deltas — reads each shard's own counters,
  // adds nothing to any hot path). The shrink disambiguator: see
  // adapt_decide.
  [[nodiscard]] std::size_t used_shards() {
    if constexpr (kHasShardTelemetry) {
      std::size_t used = 0;
      for (std::size_t s = 0; s < Obj::kShardCount; ++s) {
        const std::uint64_t cum = obj_.value.shard(s).direct_ops() +
                                  obj_.value.shard(s).combined_ops();
        if (cum > shard_prev_[s]) ++used;
        shard_prev_[s] = cum;
      }
      return used;
    } else {
      return 1;
    }
  }

  Padded<Obj> obj_;
  // The op counters are the only enabled-path hot writes; one padded
  // cell per caller, so no line is written by two callers and none
  // shares a line with monitor state.
  std::array<Padded<std::atomic<std::uint64_t>>, kOpCountCells> op_counts_{};
  std::atomic<bool> enabled_{true};
  std::atomic<bool> tick_lock_{false};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> last_change_ops_{0};
  ContentionMonitor monitor_{};
  AdaptivePolicy policy_{};
  std::array<std::uint64_t, max_shards()> shard_prev_{};
};

}  // namespace scm
