// Scenario compose.depth (E11) — the cost of composition at depth
// 1→8, on the variadic Pipeline<Ms...> combinator (Theorem 2: chains
// of any length are again modules; the paper's "negligible cost of
// composition" claim, measured as a curve instead of a point).
//
// Two pipeline families per depth d, both statically composed (zero
// virtual calls, zero std::function hops — the harness overhead is
// the plumbing being measured):
//  * commit d: (d-1) obstruction-free A1 modules in front of the
//    hardware A2, measured solo (one thread — the paper's uncontended
//    regime, and the only regime with deterministic step counts: under
//    contention A1's sticky aborted_ flags make steady-state costs
//    depend on which stages got poisoned during the initial race).
//    After the one-shot object is decided, every operation commits at
//    stage 0 in a constant number of register reads — the cost of the
//    operation does NOT grow with the number of modules stacked behind
//    it (composition is free until used).
//  * walk d: (d-1) switch-relay modules that each perform one register
//    read and abort, handing an incremented switch value to the next
//    stage, before a sink commits the inherited value. Runs on
//    --threads threads (the relays are stateless, so steps/op equals d
//    exactly at any contention level). Every operation traverses the
//    full chain: the composition's marginal cost is one module
//    invocation per stage, and the committed response equals the relay
//    count — an end-to-end check of the abort→init switch plumbing at
//    every depth.
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "core/pipeline.hpp"
#include "history/specs.hpp"
#include "runtime/platform.hpp"
#include "tas/a1_module.hpp"
#include "tas/a2_module.hpp"

namespace {

using namespace scm;
using namespace scm::bench;

constexpr std::size_t kMaxDepth = 8;

Request tas_req(ProcessId p, std::uint64_t i) {
  return Request{(static_cast<std::uint64_t>(p) << 40) | (i + 1), p,
                 TasSpec::kTestAndSet, 0};
}

// Aborts every invocation after one counted register read, passing an
// incremented hop count downstream — the minimal module whose only job
// is to exercise the composition plumbing.
class SwitchRelay {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    (void)gate_.read(ctx);  // the stage's one unit of work
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }

 private:
  NativeRegister<int> gate_{0};
};

// Commits the inherited hop count after one counted register read.
class SwitchSink {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    (void)gate_.read(ctx);
    return ModuleResult::commit(init.value_or(0));
  }

 private:
  NativeRegister<int> gate_{0};
};

template <std::size_t D>
void run_depth(const BenchParams& params, ScenarioResult& result,
               std::array<double, kMaxDepth + 1>& commit_steps,
               std::array<double, kMaxDepth + 1>& walk_steps,
               std::uint64_t& plumbing_mismatches) {
  static_assert(D >= 1 && D <= kMaxDepth);

  // The timed hot loops run on FastPipeline: the measured ns/op curve
  // must contain only the modules' own work, not per-stage stats
  // fetch_adds whose cross-thread contention would itself grow with
  // depth. Per-stage stats are reported from a short unmeasured probe
  // on a stats-enabled pipeline over fresh modules (the stats columns
  // are exact there — the behaviour is deterministic solo).
  constexpr std::uint64_t kProbeOps = 64;

  // ---- commit family: (D-1) x A1 + A2, steady-state stage-0 commits.
  {
    std::array<ObstructionFreeTas<>, D - 1> a1s;
    WaitFreeTas a2;
    auto pipe = [&]<std::size_t... I>(std::index_sequence<I...>) {
      return make_fast_pipeline(a1s[I]..., a2);
    }(std::make_index_sequence<D - 1>{});
    static_assert(decltype(pipe)::kDepth == D);
    static_assert(decltype(pipe)::kConsensusNumber == kConsensusNumberTas,
                  "the TAS stack folds to consensus number 2 at any depth");

    PhaseMetrics pm = measure_native(
        "commit d=" + std::to_string(D), /*threads=*/1, params.ops,
        [&](NativeContext& ctx, std::uint64_t i) {
          (void)pipe.invoke(ctx, tas_req(ctx.id(), i));
        });
    commit_steps[D] = pm.steps_per_op();
    pm.extra["depth"] = static_cast<double>(D);

    std::array<ObstructionFreeTas<>, D - 1> probe_a1s;
    WaitFreeTas probe_a2;
    auto probe = [&]<std::size_t... I>(std::index_sequence<I...>) {
      return make_pipeline(probe_a1s[I]..., probe_a2);
    }(std::make_index_sequence<D - 1>{});
    NativeContext probe_ctx(0);
    for (std::uint64_t i = 0; i < kProbeOps; ++i) {
      (void)probe.invoke(probe_ctx, tas_req(0, i));
    }
    pm.extra["stage0_commits_per_op"] =
        static_cast<double>(probe.stats(0).commits) /
        static_cast<double>(kProbeOps);
    result.phases.push_back(std::move(pm));
  }

  // ---- walk family: (D-1) x relay + sink, full-chain traversal.
  {
    std::array<SwitchRelay, D - 1> relays;
    SwitchSink sink;
    auto pipe = [&]<std::size_t... I>(std::index_sequence<I...>) {
      return make_fast_pipeline(relays[I]..., sink);
    }(std::make_index_sequence<D - 1>{});
    static_assert(decltype(pipe)::kConsensusNumber == kConsensusNumberRegister,
                  "the relay stack uses registers only");

    std::atomic<std::uint64_t> mismatches{0};
    PhaseMetrics pm = measure_native(
        "walk d=" + std::to_string(D), params.threads, params.ops,
        [&](NativeContext& ctx, std::uint64_t i) {
          const ModuleResult r = pipe.invoke(ctx, tas_req(ctx.id(), i));
          // The sink commits the hop count: D-1 relays aborted into it.
          if (!r.committed() ||
              r.response != static_cast<Response>(D - 1)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        });
    walk_steps[D] = pm.steps_per_op();
    plumbing_mismatches += mismatches.load(std::memory_order_relaxed);
    pm.extra["depth"] = static_cast<double>(D);

    if constexpr (D >= 2) {
      std::array<SwitchRelay, D - 1> probe_relays;
      SwitchSink probe_sink;
      auto probe = [&]<std::size_t... I>(std::index_sequence<I...>) {
        return make_pipeline(probe_relays[I]..., probe_sink);
      }(std::make_index_sequence<D - 1>{});
      NativeContext probe_ctx(0);
      for (std::uint64_t i = 0; i < kProbeOps; ++i) {
        (void)probe.invoke(probe_ctx, tas_req(0, i));
      }
      pm.extra["relay_aborts_per_op"] =
          static_cast<double>(probe.stats(0).aborts) /
          static_cast<double>(kProbeOps);
    }
    result.phases.push_back(std::move(pm));
  }
}

ScenarioResult run(const BenchParams& params) {
  ScenarioResult result;
  std::array<double, kMaxDepth + 1> commit_steps{};
  std::array<double, kMaxDepth + 1> walk_steps{};
  std::uint64_t plumbing_mismatches = 0;

  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (run_depth<I + 1>(params, result, commit_steps, walk_steps,
                      plumbing_mismatches),
     ...);
  }(std::make_index_sequence<kMaxDepth>{});

  // Scale-robust checks: the walk family's step count is deterministic
  // (one read per stage, exactly), the commit family's steady state is
  // independent of depth up to the first-win transient, and every
  // traversal delivered the correct hop count end to end.
  bool walk_exact = true;
  for (std::size_t d = 1; d <= kMaxDepth; ++d) {
    if (std::abs(walk_steps[d] - static_cast<double>(d)) > 0.01) {
      walk_exact = false;
    }
  }
  const bool commit_flat =
      std::abs(commit_steps[kMaxDepth] - commit_steps[2]) < 0.5;

  result.claim =
      "uncontended stage-0 commits cost the same at every depth; a "
      "full traversal adds exactly one module invocation per stage; "
      "switch values plumb through all 8 stages";
  result.claim_holds = walk_exact && commit_flat && plumbing_mismatches == 0;
  return result;
}

SCM_BENCH_REGISTER("compose.depth", "E11",
                   "cost-of-composition curve: pipeline depth 1..8, "
                   "stage-0 commit vs full abort walk",
                   Backend::kNative, run);

}  // namespace
