// Sharded composition (the decomposition-for-scalability counterpart
// of Pipeline<Ms...>): replicate a pipeline or chain across
// cacheline-isolated shards and route every operation to exactly one
// replica, so contention becomes a tunable axis instead of a fixed
// property of the single shared instance the paper measures.
//
// Sharded<Obj, kShards, Policy> is a combinator, not an algorithm: each
// shard is an independent instance of Obj (a Pipeline, FastPipeline,
// StaticAbstractChain, or any other Composable object), and
// the policy maps (context, request) -> shard index. Routing is the
// only code the combinator adds to the hot path — one pure arithmetic
// function, no shared state, no virtual dispatch, no type erasure.
// Because Sharded forwards the module surface (invoke +
// kConsensusNumber) it is itself a ComposableModule whenever Obj is, so
// shards nest: a shard may be a pipeline, and a pipeline stage may be a
// Sharded.
//
// Semantics: operations on DIFFERENT shards touch disjoint base
// objects, so a sharded object is linearizable per shard (each shard
// is the composed object the paper proves correct) but deliberately
// NOT a single linearizable instance of the unsharded type — exactly
// the trade studied for sequentially consistent composition (Perrin et
// al.) and coded emulation (Cadambe et al.): spread the load, keep the
// per-shard guarantees. Both policies (ByThread, ByKeyHash) are pure
// functions of the request and the compile-time shard count, so the
// partition is fixed for the object's lifetime: the same key always
// reaches the same shard, and per-key histories stay linearizable.
//
// Statistics: per-shard PipelineCounters (or per-process chain commit
// tallies) stay on their shard's cache lines; stats()/commits_by()
// merge them into the aggregate view on demand, off the hot path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/async.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "history/request.hpp"
#include "runtime/ids.hpp"
#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"

namespace scm {

// A routing policy maps (context, request, shard count) to a shard
// index in [0, shards). The call operator must be const: routing is a
// pure function of its arguments, so routing the same operation twice
// (route() then invoke_at())
// always picks the same shard.
template <class P, class Ctx>
concept ShardRoutingPolicy =
    requires(const P& p, Ctx& ctx, const Request& m, std::size_t shards) {
      { p(ctx, m, shards) } -> std::convertible_to<std::size_t>;
    };

// Deterministic per-process routing: process i always uses shard
// i mod kShards. Zero shared state; with threads <= shards every
// thread owns a private replica (the contention-free regime).
struct ByThread {
  template <class Ctx>
  std::size_t operator()(Ctx& ctx, const Request& /*m*/,
                         std::size_t shards) const noexcept {
    return static_cast<std::size_t>(ctx.id()) % shards;
  }
};

// Deterministic per-key routing: the request's argument is the key
// (workload/keyed.hpp generates such streams); a SplitMix64 finalizer
// decorrelates adjacent keys before the modulo so hot keys spread only
// as far as their hash allows — skewed key draws produce genuinely
// skewed shard load, which is the contention axis sharding_test's
// concurrent keyed-ops case runs at zipf 0 and 0.99.
struct ByKeyHash {
  [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t k) noexcept {
    std::uint64_t z = k + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  template <class Ctx>
  std::size_t operator()(Ctx& /*ctx*/, const Request& m,
                         std::size_t shards) const noexcept {
    return static_cast<std::size_t>(mix(static_cast<std::uint64_t>(m.arg)) %
                                    shards);
  }
};

namespace detail {

// Sharded is a ComposableModule iff Obj is: the consensus-number tag
// is inherited exactly when Obj declares one.
template <class Obj, class = void>
struct ShardedConsensusBase {};

template <class Obj>
struct ShardedConsensusBase<Obj, std::void_t<decltype(Obj::kConsensusNumber)>> {
  // Shards are independent replicas, so sharding cannot raise the
  // consensus power of the replicated object.
  static constexpr int kConsensusNumber = Obj::kConsensusNumber;
};

// Likewise the chain/pipeline depth, when Obj exposes one.
template <class Obj, class = void>
struct ShardedDepthBase {};

template <class Obj>
struct ShardedDepthBase<Obj, std::void_t<decltype(Obj::kDepth)>> {
  static constexpr std::size_t kDepth = Obj::kDepth;
};

}  // namespace detail

template <class Obj, std::size_t kShards, class Policy = ByThread>
class Sharded : public detail::ShardedConsensusBase<Obj>,
                public detail::ShardedDepthBase<Obj> {
  static_assert(kShards >= 1, "a sharded object needs at least one shard");

 public:
  static constexpr std::size_t kShardCount = kShards;

  // All-owned default construction, when each shard's Obj needs no
  // arguments (e.g. a pipeline of default-constructible modules).
  Sharded()
    requires std::is_default_constructible_v<Obj>
      : shards_{} {}

  // Per-shard argument construction for objects with constructor
  // parameters (StaticAbstractChain needs its process count and stage
  // references): make_args(shard) returns a tuple of constructor
  // arguments for that shard's replica, which is built in place — Obj
  // may be immovable (registers pin their cache lines).
  template <class Fn>
    requires requires(Fn& fn) {
      std::make_from_tuple<Obj>(fn(std::size_t{0}));
    }
  explicit Sharded(std::in_place_t, Fn&& make_args)
      : shards_(build(make_args, std::make_index_sequence<kShards>{})) {}

  Sharded(const Sharded&) = delete;
  Sharded& operator=(const Sharded&) = delete;

  // The shard this (context, request) pair routes to. Exposed so tests
  // and scenarios can verify routing determinism and measure per-shard
  // load without re-implementing the policy. The policy sees the
  // compile-time shard count, so routing reads no shared state.
  template <class Ctx>
    requires ShardRoutingPolicy<Policy, Ctx>
  [[nodiscard]] std::size_t route(Ctx& ctx, const Request& m) const {
    const std::size_t s = policy_(ctx, m, kShards);
    SCM_CHECK_MSG(s < kShards, "routing policy produced an out-of-range shard");
    return s;
  }

  // Every shard serves; the count is fixed at compile time.
  [[nodiscard]] static constexpr std::size_t active_shards() noexcept {
    return kShards;
  }

  // Module surface: route, then run the replica through apply(). Any
  // Composable replica serves it, Sharded<StaticAbstractChain<...>>
  // included. Together with the inherited kConsensusNumber this makes
  // Sharded<Pipeline<...>> a ComposableModule again.
  template <class Ctx>
    requires Composable<Obj, Ctx> && ShardRoutingPolicy<Policy, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    return scm::apply(shards_[route(ctx, m)].value, ctx, m, init);
  }

  // Runs the operation on an explicitly chosen shard (usually the one
  // route() returned, for callers that attribute results per shard).
  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke_at(std::size_t s, Ctx& ctx, const Request& m,
                         std::optional<SwitchValue> init = std::nullopt) {
    return scm::apply(shard(s), ctx, m, init);
  }

  // ---- async surface (core/async.hpp).

  // Route, then submit on the chosen shard with every further argument
  // (a switch value, a completion callback and its cookie) forwarded
  // as given. When the replica is itself asynchronous (per-shard
  // Combining), its pending ticket is forwarded unchanged; otherwise
  // see the synchronous overload below.
  template <class Ctx, class... Args>
    requires ShardRoutingPolicy<Policy, Ctx>
  auto submit(Ctx& ctx, const Request& m, Args&&... args)
    requires requires(Obj& o) { o.submit(ctx, m, std::forward<Args>(args)...); }
  {
    return shards_[route(ctx, m)].value.submit(ctx, m,
                                               std::forward<Args>(args)...);
  }

  // Synchronous replicas (pipelines, chains) complete inline:
  // submit() is invoke() plus a ready ticket, keeping the
  // submit/complete surface uniform across every Sharded instance.
  template <class Ctx>
    requires Composable<Obj, Ctx> && ShardRoutingPolicy<Policy, Ctx> &&
             (!requires(Obj& o, Ctx& c, const Request& r,
                        std::optional<SwitchValue> v) { o.submit(c, r, v); })
  Ticket<ModuleResult> submit(Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init = std::nullopt) {
    return Ticket<ModuleResult>::ready(invoke(ctx, m, init));
  }

  // Drains every shard's pending publications (enabled exactly when
  // the replica is drainable, i.e. per-shard Combining).
  template <class Ctx>
  void drain(Ctx& ctx)
    requires requires(Obj& o) { o.drain(ctx); }
  {
    for (auto& s : shards_) s.value.drain(ctx);
  }

  [[nodiscard]] Obj& shard(std::size_t s) noexcept {
    SCM_CHECK(s < kShards);
    return shards_[s].value;
  }
  [[nodiscard]] const Obj& shard(std::size_t s) const noexcept {
    SCM_CHECK(s < kShards);
    return shards_[s].value;
  }

  // ---- merged statistics (each forwarded surface is enabled exactly
  // when the replicated object provides it).

  // Aggregate per-stage pipeline stats: the sum over shards of each
  // shard's PipelineCounters snapshot.
  [[nodiscard]] PipelineStageStats stats(std::size_t i) const
    requires requires(const Obj& o, std::size_t j) {
      { o.stats(j) } -> std::same_as<PipelineStageStats>;
    }
  {
    PipelineStageStats agg;
    for (const auto& s : shards_) {
      const PipelineStageStats one = s.value.stats(i);
      agg.commits += one.commits;
      agg.aborts += one.aborts;
    }
    return agg;
  }

  // Aggregate chain accounting: commits served by stage i for process
  // pid, summed over shards (a process may touch several shards).
  [[nodiscard]] std::uint64_t commits_by(ProcessId pid, std::size_t i) const
    requires requires(const Obj& o, std::size_t j) { o.commits_by(pid, j); }
  {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.commits_by(pid, i);
    return total;
  }

  // ---- aggregate combining/parking telemetry (enabled when the
  // replica emits it). Per-shard counters stay on their own lines;
  // summation is off the hot path.

  [[nodiscard]] std::uint64_t direct_ops() const noexcept
    requires requires(const Obj& o) { o.direct_ops(); }
  {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.direct_ops();
    return total;
  }

  [[nodiscard]] std::uint64_t combined_ops() const noexcept
    requires requires(const Obj& o) { o.combined_ops(); }
  {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.combined_ops();
    return total;
  }

  [[nodiscard]] std::uint64_t combine_rounds() const noexcept
    requires requires(const Obj& o) { o.combine_rounds(); }
  {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.combine_rounds();
    return total;
  }

  [[nodiscard]] ParkStats park_stats() const noexcept
    requires requires(const Obj& o) {
      { o.park_stats() } -> std::same_as<ParkStats>;
    }
  {
    ParkStats agg;
    for (const auto& s : shards_) {
      const ParkStats one = s.value.park_stats();
      agg.parks += one.parks;
      agg.wakes += one.wakes;
      agg.spurious_wakes += one.spurious_wakes;
      agg.futex_syscalls += one.futex_syscalls;
      agg.fast_wakes += one.fast_wakes;
    }
    return agg;
  }

 private:
  template <class Fn, std::size_t... I>
  static std::array<Padded<Obj>, kShards> build(Fn& make_args,
                                                std::index_sequence<I...>) {
    // Every element is a prvalue chain (make_from_tuple -> aggregate
    // element), so immovable Objs construct in place via guaranteed
    // copy elision.
    return {std::make_from_tuple<Padded<Obj>>(std::tuple_cat(
        std::make_tuple(std::in_place), make_args(std::size_t{I})))...};
  }

  std::array<Padded<Obj>, kShards> shards_;
  [[no_unique_address]] Policy policy_{};
};

}  // namespace scm
