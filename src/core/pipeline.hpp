// Variadic composition pipeline (Figure 1 generalized to chains of any
// depth; Theorem 2 — safely composable modules compose to a safely
// composable module).
//
// Pipeline<Ms...> is the statically-typed chain combinator: it holds
// any number of ComposableModules and folds the abort→init switch-value plumbing at
// compile time. Invoking the pipeline runs stage 0; if a stage aborts,
// its switch value initializes the next stage, exactly as in the
// paper's composition operator, and the recursion is unrolled with
// `if constexpr` — no virtual dispatch, no type erasure, no heap. If
// the LAST stage aborts, the pipeline as a whole aborts with that
// stage's switch value, so a Pipeline is itself a ComposableModule and
// nests (a pipeline of pipelines is a pipeline).
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
// Statistics: the default Pipeline counts per-stage commits and aborts
// with relaxed atomics (one uncontended fetch_add per stage visited —
// harness bookkeeping, never a counted shared-memory step).
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
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/async.hpp"
#include "core/batch.hpp"
#include "core/module.hpp"
#include "history/request.hpp"
#include "support/assert.hpp"

namespace scm {

// Per-stage commit/abort totals (a snapshot; see BasicPipeline::stats).
struct PipelineStageStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;

  [[nodiscard]] std::uint64_t invocations() const noexcept {
    return commits + aborts;
  }
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
  // Bulk variants for the batch path: one fetch_add per stage per
  // batch instead of one per operation — the per-op composition
  // bookkeeping becomes per-batch bookkeeping.
  void on_commits(std::size_t i, std::uint64_t n) noexcept {
    // scm-lint: relaxed-rmw-ok (copyable per-pipeline stage count)
    if (n != 0) cells[i].commits.fetch_add(n, std::memory_order_relaxed);
  }
  void on_aborts(std::size_t i, std::uint64_t n) noexcept {
    // scm-lint: relaxed-rmw-ok (copyable per-pipeline stage count)
    if (n != 0) cells[i].aborts.fetch_add(n, std::memory_order_relaxed);
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

  // Result of one invocation together with the stage that produced it
  // (Figure 1's arrows — which module served the operation).
  struct Traced {
    ModuleResult result;
    std::size_t stage = 0;
  };

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
  // next stage; the last stage's abort is the pipeline's abort.
  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    return run_from<0>(ctx, m, init).result;
  }

  // invoke plus the index of the serving stage.
  template <class Ctx>
  Traced invoke_traced(Ctx& ctx, const Request& m,
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
  Ticket<ModuleResult> submit(Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init = std::nullopt) {
    return Ticket<ModuleResult>::ready(run_from<0>(ctx, m, init).result);
  }

  // Batch path: executes every pending (done == false) slot and fills
  // its result, walking the chain STAGE-MAJOR — all pending slots
  // visit stage 0, the aborted ones carry their switch values to
  // stage 1 together, and so on. For a single executing thread this
  // is result-identical to invoking the slots in order PROVIDED the
  // stages are distinct objects: each stage then sees the same
  // invocation subsequence in the same order, so its state evolves
  // identically. (make_pipeline's reference mode does let one module
  // serve two stages; such a shared stateful module observes the
  // stage-major order instead — don't drive that shape through the
  // batch path expecting per-op results.) The composition overhead is
  // paid once per batch: the compile-time switch-plumbing walk happens
  // once, and the per-stage statistics are ONE bulk fetch_add per
  // stage instead of one per operation. A stage that itself has a
  // batch path (a nested pipeline) receives the whole span and skips
  // the finalized slots — no gathering, no allocation. Slot `init`
  // fields are consumed as the fold's carriers; all done flags are
  // true on return.
  template <class Ctx>
  void invoke_batch(Ctx& ctx, std::span<OpSlot> batch) {
    if (batch.empty()) return;
    batch_from<0>(ctx, batch);
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
  template <std::size_t I, class Ctx>
  Traced run_from(Ctx& ctx, const Request& m,
                  std::optional<SwitchValue> init) {
    const ModuleResult r = stage<I>().invoke(ctx, m, init);
    if (r.committed()) {
      if constexpr (WithStats) counters_.on_commit(I);
      return {r, I};
    }
    if constexpr (WithStats) counters_.on_abort(I);
    if constexpr (I + 1 < kDepth) {
      return run_from<I + 1>(ctx, m,
                             std::optional<SwitchValue>(r.switch_value));
    } else {
      return {r, I};  // whole-pipeline abort: composes further upstream
    }
  }

  // One stage of the stage-major batch walk: run every live (not yet
  // committed / finally aborted) slot through stage I, then hand the
  // survivors to stage I+1. Commit/abort tallies are accumulated in
  // locals and flushed with one bulk update per stage.
  template <std::size_t I, class Ctx>
  void batch_from(Ctx& ctx, std::span<OpSlot> batch) {
    auto& st = stage<I>();
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t pending = 0;

    if constexpr (BatchInvocable<std::remove_reference_t<decltype(st)>, Ctx>) {
      // The stage has its own batch path (e.g. a nested pipeline):
      // hand it the WHOLE span — the done-flag contract makes it skip
      // the slots earlier outer stages finalized, so no gather/scatter
      // copies and no allocation. Afterwards every slot is done;
      // whether one continues downstream is decided by its result
      // outcome. The outcome also re-identifies the slots this stage
      // served: slots finalized at an earlier outer stage can only
      // hold commits (final aborts exist only past the LAST stage), so
      // every abort-result slot is one of ours, and our commits are
      // the live count minus those aborts.
      std::uint64_t live = 0;
      for (const OpSlot& slot : batch) live += slot.done ? 0 : 1;
      st.invoke_batch(ctx, batch);
      for (OpSlot& slot : batch) {
        if (slot.result.committed()) continue;
        slot.init = slot.result.switch_value;
        ++aborts;
        ++pending;
        if constexpr (I + 1 < kDepth) slot.done = false;
      }
      commits = live - aborts;
    } else {
      for (OpSlot& slot : batch) {
        if (slot.done) continue;
        slot.result = st.invoke(ctx, slot.request, slot.init);
        if (slot.result.committed()) {
          slot.done = true;
          ++commits;
        } else {
          // Theorem 1's plumbing, batched: the abort switch value
          // initializes this slot's next stage.
          slot.init = slot.result.switch_value;
          ++aborts;
          ++pending;
          if constexpr (I + 1 == kDepth) slot.done = true;
        }
      }
    }

    if constexpr (WithStats) {
      counters_.on_commits(I, commits);
      counters_.on_aborts(I, aborts);
    }
    if constexpr (I + 1 < kDepth) {
      if (pending != 0) batch_from<I + 1>(ctx, batch);
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
