// Variadic composition pipeline (Figure 1 generalized to chains of any
// depth; Theorem 2 — safely composable modules compose to a safely
// composable module).
//
// Pipeline<Ms...> is the statically-typed chain combinator, the
// paper's one composition operator: it holds any number of stages and
// folds the abort→init switch-value plumbing at compile time. Invoking
// the pipeline runs stage 0; if a stage aborts, its switch value
// initializes the next stage, and the recursion is unrolled with
// `if constexpr` — no virtual dispatch, no type erasure, no heap.
//
// The switch value's type is a property of the stages, read through
// the stage hooks (enter_stage, next_init, module_result in
// core/module.hpp), never branched on here:
//   * modules (Theorem 2) pass a constant-size SwitchValue. If the
//     LAST stage aborts, the pipeline aborts with that stage's switch
//     value, so a Pipeline is itself a ComposableModule and nests (a
//     pipeline of pipelines is a pipeline);
//   * Abstracts (Theorem 1, universal/abstract.hpp) pass a history.
//     Such a chain takes no external init and commits every op, so
//     make_pipeline(split, bakery, cas) over the universal
//     construction's stages is the wait-free object of Proposition 1.
//     Switching is sticky per process because each Abstract stage
//     remembers the processes that aborted out of it; the pipeline
//     keeps no per-process state.
//
// Each type parameter selects a storage mode:
//   * `M&` — the pipeline *references* a module owned elsewhere
//     (stored as std::reference_wrapper, never a raw pointer, so it
//     cannot silently dangle into a temporary);
//   * `M`  — the pipeline *owns* the module by value (moved in, or
//     default-constructed for all-owned pipelines).
// make_pipeline(a, b, c) deduces the mode per argument: lvalues are
// referenced, rvalues are moved in and owned.
//
// There is one walk, run_from: a direct invoke, a Sharded shard, a
// combiner serving a batch (core/batch.hpp runs it op by op) and every
// Abstract chain take it.
//
// Statistics: the default Pipeline counts per-stage commits and aborts
// with relaxed atomics (one uncontended fetch_add per stage visited
// per operation, served by a combiner or not — harness bookkeeping,
// never a counted shared-memory step).
// FastPipeline/make_fast_pipeline disable the counters at compile time
// for hot paths that must not touch a shared cache line per operation
// (e.g. the speculative TAS used by the native throughput benches).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/async.hpp"
#include "core/module.hpp"
#include "history/request.hpp"
#include "support/assert.hpp"

namespace scm {

// Per-stage commit/abort totals (a snapshot; see BasicPipeline::stats).
struct PipelineStageStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;

  PipelineStageStats& operator+=(const PipelineStageStats& o) noexcept {
    commits += o.commits;
    aborts += o.aborts;
    return *this;
  }

  [[nodiscard]] std::uint64_t invocations() const noexcept {
    return commits + aborts;
  }
};

// One invocation's result together with the stage that produced it
// (Figure 1's arrows — which stage served the operation). R is that
// stage's own result: a ModuleResult, or for Abstract stages an
// AbstractResult, whose history is the commit history.
template <class R>
struct Served {
  R result;
  std::size_t stage = 0;
};

// A stage of a chain that runs under Ctx: a module's invoke, or an
// Abstract's, accepts the context.
template <class S, class Ctx>
concept ChainStage = requires(S& s, Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init) {
  enter_stage(s, ctx, m, init);
};

namespace detail {

// Storage selector: reference mode for `M&`, owning mode for `M`.
template <class M>
struct PipelineSlot {
  using type = M;
  static M& get(M& slot) noexcept { return slot; }
  static const M& get(const M& slot) noexcept { return slot; }
};

template <class M>
struct PipelineSlot<M&> {
  using type = std::reference_wrapper<M>;
  static M& get(std::reference_wrapper<M> slot) noexcept { return slot.get(); }
};

template <std::size_t Depth>
struct PipelineCounters {
  struct Cell {
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts{0};
  };
  std::array<Cell, Depth> cells;

  PipelineCounters() = default;
  // Atomics delete the implicit copy/move; counters are snapshot-copied
  // so pipelines stay movable (a moved-from pipeline's counts carry
  // over — moves happen at construction time, never mid-measurement).
  PipelineCounters(const PipelineCounters& other) noexcept {
    for (std::size_t i = 0; i < Depth; ++i) {
      cells[i].commits.store(
          other.cells[i].commits.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      cells[i].aborts.store(
          other.cells[i].aborts.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }
  PipelineCounters& operator=(const PipelineCounters&) = delete;

  // Shared RMW counts, kept so the counters stay copyable with the
  // pipeline; FastPipeline, the hot-path form, compiles them out.
  void on_commit(std::size_t i) noexcept {
    // scm-lint: relaxed-rmw-ok (copyable per-pipeline stage count)
    cells[i].commits.fetch_add(1, std::memory_order_relaxed);
  }
  void on_abort(std::size_t i) noexcept {
    // scm-lint: relaxed-rmw-ok (copyable per-pipeline stage count)
    cells[i].aborts.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] PipelineStageStats snapshot(std::size_t i) const noexcept {
    return {cells[i].commits.load(std::memory_order_relaxed),
            cells[i].aborts.load(std::memory_order_relaxed)};
  }
};

struct NoPipelineCounters {};

}  // namespace detail

template <bool WithStats, class... Ms>
class BasicPipeline {
  static_assert(sizeof...(Ms) >= 1, "a pipeline needs at least one module");

 public:
  // Number of composed modules — the chain depth of Figure 1.
  static constexpr std::size_t kDepth = sizeof...(Ms);

  // The composition's consensus number is the maximum over the
  // components (the quantity the paper's "negligible cost" results
  // bound), folded at compile time.
  static constexpr int kConsensusNumber =
      std::max({std::remove_reference_t<Ms>::kConsensusNumber...});

  // Reference slots bind to the given modules; owned slots are
  // move-constructed from rvalue arguments.
  explicit BasicPipeline(Ms&&... modules)
      : slots_(std::forward<Ms>(modules)...) {}

  // All-owned pipelines of default-constructible modules need no
  // arguments: Pipeline<A1, A2> p; owns both stages in place.
  BasicPipeline()
    requires((!std::is_reference_v<Ms> &&
              std::is_default_constructible_v<Ms>) &&
             ...)
      : slots_() {}

  // The module interface (ComposableModule): run the chain starting at
  // stage 0 with `init`; a stage's abort switch value initializes the
  // next stage; the last stage's abort is the pipeline's abort (for
  // Abstracts, a check failure). Every entry point accepts exactly the
  // contexts all stages accept.
  template <class Ctx>
    requires(ChainStage<std::remove_reference_t<Ms>, Ctx> && ...)
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    return module_result(run_from<0>(ctx, m, init).result);
  }

  // The serving stage's own result plus its index.
  template <class Ctx>
    requires(ChainStage<std::remove_reference_t<Ms>, Ctx> && ...)
  auto invoke_traced(Ctx& ctx, const Request& m,
                     std::optional<SwitchValue> init = std::nullopt) {
    return run_from<0>(ctx, m, init);
  }

  // Async adapter (core/async.hpp): a pipeline invocation is
  // synchronous — the chain walk IS the operation — so submit()
  // completes inline and returns an already-ready ticket. This keeps
  // the submit/complete surface uniform across every composition
  // layer (drivers written against submit() run unchanged over
  // pipelines, sharded pipelines, and combining wrappers) at zero
  // behavioural and zero per-op cost.
  template <class Ctx>
    requires(ChainStage<std::remove_reference_t<Ms>, Ctx> && ...)
  Ticket<ModuleResult> submit(Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init = std::nullopt) {
    return Ticket<ModuleResult>::ready(
        module_result(run_from<0>(ctx, m, init).result));
  }

  // The I-th composed module (unwrapped from its storage mode).
  template <std::size_t I>
  [[nodiscard]] auto& stage() noexcept {
    static_assert(I < kDepth);
    using M = std::tuple_element_t<I, std::tuple<Ms...>>;
    return detail::PipelineSlot<M>::get(std::get<I>(slots_));
  }

  // Per-stage statistics snapshot. Only available when the stats
  // counters are compiled in (the default Pipeline alias).
  [[nodiscard]] PipelineStageStats stats(std::size_t i) const
    requires WithStats
  {
    SCM_CHECK(i < kDepth);
    return counters_.snapshot(i);
  }

 private:
  // r stays const and is copied, not moved: a mutable local here
  // changes how GCC inlines the module walk into the layers around it.
  template <std::size_t I, class Ctx, class Init>
  auto run_from(Ctx& ctx, const Request& m, Init init) {
    const auto r = enter_stage(stage<I>(), ctx, m, std::move(init));
    using Result = Served<std::remove_const_t<decltype(r)>>;
    if (r.committed()) {
      if constexpr (WithStats) counters_.on_commit(I);
      return Result{r, I};
    }
    if constexpr (WithStats) counters_.on_abort(I);
    if constexpr (I + 1 < kDepth) {
      return run_from<I + 1>(ctx, m, next_init(r));
    } else {
      return Result{r, I};  // whole-chain abort
    }
  }

  std::tuple<typename detail::PipelineSlot<Ms>::type...> slots_;
  [[no_unique_address]] std::conditional_t<WithStats,
                                           detail::PipelineCounters<kDepth>,
                                           detail::NoPipelineCounters>
      counters_;
};

template <class... Ms>
using Pipeline = BasicPipeline<true, Ms...>;

// Stats-free variant: the commit path touches nothing but the modules.
template <class... Ms>
using FastPipeline = BasicPipeline<false, Ms...>;

// Deduction helpers. Lvalue arguments are referenced (caller keeps
// ownership and the modules stay shared); rvalues are moved in and
// owned by the pipeline.
template <class... Ms>
[[nodiscard]] auto make_pipeline(Ms&&... modules) {
  return Pipeline<Ms...>(std::forward<Ms>(modules)...);
}

template <class... Ms>
[[nodiscard]] auto make_fast_pipeline(Ms&&... modules) {
  return FastPipeline<Ms...>(std::forward<Ms>(modules)...);
}

}  // namespace scm
