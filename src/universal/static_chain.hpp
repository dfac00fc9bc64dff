// A chain of composed Abstract instances (Section 4.2, "Contention-free,
// obstruction-free and wait-free variants") over a compile-time list of
// concrete stage types.
//
// The chain first calls stage 0; on Abort(m, h) it calls stage 1 with
// initial history h, and so on (Theorem 1: the composition of Abstracts
// is an Abstract). With a wait-free final stage the chain never aborts,
// yielding a wait-free linearizable implementation of any sequential
// type that uses only registers while the cheap stages commit
// (Proposition 1).
//
// Stage switching is *sticky per process*, as in the paper: once a
// process aborts out of a stage it keeps using the later stage for its
// subsequent requests (an aborted Abstract instance is poisoned anyway).
//
// The chain speaks the module surface — invoke(ctx, m, init) ->
// ModuleResult — so every wrapper (Sharded, Combining, Replicated,
// Adaptive) composes over it exactly as over a Pipeline. perform()
// additionally returns the serving stage and the commit history.
//
// Ownership mirrors Pipeline's reference mode: stages are held by
// reference_wrapper (ComposableUniversal is immovable — it pins
// registers and per-process slabs), so the caller keeps the stages
// alive for the chain's lifetime.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "core/module.hpp"
#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "universal/abstract.hpp"

namespace scm {

template <class... Stages>
class StaticAbstractChain {
  static_assert(sizeof...(Stages) >= 1, "empty static chain");

 public:
  static constexpr std::size_t kDepth = sizeof...(Stages);

  // The chain's consensus number: the max over its stages, folded at
  // compile time as Pipeline folds its modules'.
  static constexpr int kConsensusNumber =
      std::max({Stages::kConsensusNumber...});

  StaticAbstractChain(int num_processes, Stages&... stages)
      : n_(num_processes), stages_(stages...) {
    // Validate before sizing the allocation: a negative count must hit
    // this diagnostic, not a size_t-wrapped bad_alloc.
    SCM_CHECK(num_processes > 0);
    per_proc_ =
        std::make_unique<PerProc[]>(static_cast<std::size_t>(num_processes));
  }

  // Performs request m; wait-free iff the last stage never aborts.
  // Every stage must expose the Abstract surface under the caller's
  // context.
  template <class Ctx>
    requires(AbstractStageLike<Stages, Ctx> && ...)
  ChainPerformed perform(Ctx& ctx, const Request& m) {
    SCM_CHECK_MSG(0 <= ctx.id() && ctx.id() < n_,
                  "StaticAbstractChain: process id out of range");
    PerProc& me = per_proc_[static_cast<std::size_t>(ctx.id())];
    return resume_at<0>(me.stage, me, ctx, m);
  }

  // The module surface: commits perform()'s response. A chain's switch
  // values travel inside it (an abort's history initializes the next
  // stage, and the last stage never aborts), so an external init has
  // no meaning here — passing one is a composition error.
  template <class Ctx>
    requires(AbstractStageLike<Stages, Ctx> && ...)
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    SCM_CHECK_MSG(!init.has_value(),
                  "a chain consumes its switch values internally; an "
                  "external init has no meaning here");
    return ModuleResult::commit(perform(ctx, m).response);
  }

  [[nodiscard]] static constexpr std::size_t stage_count() noexcept {
    return kDepth;
  }

  template <std::size_t I>
  [[nodiscard]] auto& stage() noexcept {
    return std::get<I>(stages_).get();
  }

  [[nodiscard]] const char* stage_name(std::size_t i) const {
    SCM_CHECK(i < kDepth);
    return with_stage<0>(i, [](const auto& s) { return s.name(); });
  }

  // Commits served by stage `i` on behalf of process `pid`.
  [[nodiscard]] std::uint64_t commits_by(ProcessId pid, std::size_t i) const {
    SCM_CHECK_MSG(0 <= pid && pid < n_,
                  "StaticAbstractChain: process id out of range");
    SCM_CHECK(i < kDepth);
    return per_proc_[static_cast<std::size_t>(pid)].commits_by_stage[i];
  }

 private:
  struct alignas(kCacheLineSize) PerProc {
    std::size_t stage = 0;  // sticky switch point, as in the paper
    History pending_init;   // abort history awaiting the next stage
    std::array<std::uint64_t, kDepth> commits_by_stage{};
  };

  // Runtime stage index -> compile-time stage: walk the tuple until the
  // sticky index is reached, then run the chain tail from there.
  template <std::size_t I, class Ctx>
  ChainPerformed resume_at(std::size_t idx, PerProc& me, Ctx& ctx,
                           const Request& m) {
    if constexpr (I < kDepth) {
      if (idx == I) return run_from<I>(me, ctx, m);
      return resume_at<I + 1>(idx, me, ctx, m);
    } else {
      SCM_CHECK_MSG(false, "static chain exhausted: last stage aborted");
      __builtin_unreachable();
    }
  }

  template <std::size_t I, class Ctx>
  ChainPerformed run_from(PerProc& me, Ctx& ctx, const Request& m) {
    AbstractResult r =
        std::get<I>(stages_).get().invoke(ctx, m, me.pending_init);
    if (r.committed()) {
      ++me.commits_by_stage[I];
      ChainPerformed out;
      out.response = r.response;
      out.stage = I;
      out.history = std::move(r.history);
      return out;
    }
    // Abort: the abort history initializes the next stage (Theorem 1);
    // the switch is sticky for this process from now on.
    me.pending_init = std::move(r.history);
    me.stage = I + 1;
    if constexpr (I + 1 < kDepth) {
      return run_from<I + 1>(me, ctx, m);
    } else {
      SCM_CHECK_MSG(false, "static chain exhausted: last stage aborted");
      __builtin_unreachable();
    }
  }

  template <std::size_t I, class Fn>
  auto with_stage(std::size_t idx, Fn&& fn) const {
    if constexpr (I + 1 < kDepth) {
      if (idx != I) return with_stage<I + 1>(idx, std::forward<Fn>(fn));
    }
    return fn(std::get<I>(stages_).get());
  }

  int n_;
  std::tuple<std::reference_wrapper<Stages>...> stages_;
  std::unique_ptr<PerProc[]> per_proc_;
};

// Deduce the stage pack from the constructor arguments:
//   StaticAbstractChain chain(n, split_stage, bakery_stage, cas_stage);
template <class... Stages>
StaticAbstractChain(int, Stages&...) -> StaticAbstractChain<Stages...>;

}  // namespace scm
