// Scenario universal.catchup (E7) — the inherent cost of generic
// composition (Proposition 2 context, Jayanti's lower bound [16]).
//
// Claims regenerated:
//  * the state transferred between modules of the *generic*
//    construction is a full history: abort-history length grows
//    linearly with the number of committed requests;
//  * a process joining late pays catch-up linear in the history length
//    (its first operation replays every decided cell);
//  * by contrast, the semantics-aware TAS transfers ONE switch value
//    regardless of history length — the gap the paper's "light-weight"
//    framework exists to close.
#include <memory>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "consensus/cas_consensus.hpp"
#include "history/specs.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "tas/speculative_tas.hpp"
#include "universal/composable_universal.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::Simulator;

// Steps for a fresh process's first op after `k` prior committed
// requests, plus the abort-history length at that point.
struct CatchUp {
  std::uint64_t joiner_steps = 0;
  std::uint64_t joiner_rmws = 0;
  std::size_t history_len = 0;
};

CatchUp measure_catchup(int k) {
  constexpr std::size_t kCap = 600;
  using Stage = ComposableUniversal<CounterSpec, CasConsensus, kCap>;
  Simulator s;
  Stage stage(2, kCap, "cas");
  CatchUp out;
  // p0 performs k requests first; then p1 performs one.
  s.add_process([&](SimContext& ctx) {
    for (int i = 0; i < k; ++i) {
      (void)stage.invoke(
          ctx,
          Request{static_cast<std::uint64_t>(i) + 1, 0, CounterSpec::kFetchInc,
                  0},
          History{});
    }
  });
  s.add_process([&](SimContext& ctx) {
    const auto r = stage.invoke(
        ctx, Request{100000, 1, CounterSpec::kFetchInc, 0}, History{});
    out.history_len = r.history.size();
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  out.joiner_steps = s.counters(1).total();
  out.joiner_rmws = s.counters(1).rmws;
  return out;
}

// The semantics-aware comparison: a late-arriving process on the
// speculative TAS pays O(1) regardless of "history" (prior rounds).
std::uint64_t tas_late_joiner_steps(int prior_ops) {
  Simulator s;
  SpeculativeTas<> tas;
  s.add_process([&](SimContext& ctx) {
    for (int i = 0; i < prior_ops; ++i) {
      (void)tas.test_and_set(
          ctx, Request{static_cast<std::uint64_t>(i) + 1, 0,
                       TasSpec::kTestAndSet, 0});
    }
  });
  s.add_process([&](SimContext& ctx) {
    (void)tas.test_and_set(ctx, Request{90000, 1, TasSpec::kTestAndSet, 0});
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  return s.counters(1).total();
}

ScenarioResult run(const BenchParams& params) {
  // History depths: fixed geometric sweep, truncated by the ops budget
  // so smoke runs stay fast (the universal stage caps at 600 cells).
  const int k_max = static_cast<int>(
      std::clamp<std::uint64_t>(params.ops * 4, 16, 256));

  ScenarioResult result;
  std::vector<std::uint64_t> joiner, tas_joiner;
  for (int k = 1; k <= k_max; k *= 4) {
    const CatchUp cu = measure_catchup(k);
    const std::uint64_t tas_steps = tas_late_joiner_steps(k);
    joiner.push_back(cu.joiner_steps);
    tas_joiner.push_back(tas_steps);

    PhaseMetrics pm;
    pm.phase = "k=" + std::to_string(k);
    pm.ops = 1;  // the late joiner's single operation
    pm.steps = cu.joiner_steps;
    pm.rmws = cu.joiner_rmws;
    pm.extra["history_len"] = static_cast<double>(cu.history_len);
    pm.extra["tas_joiner_steps"] = static_cast<double>(tas_steps);
    result.phases.push_back(std::move(pm));
  }

  result.claim = "universal-construction catch-up grows with history while "
                 "the semantics-aware TAS joiner stays constant";
  result.claim_holds = joiner.back() > 2 * joiner.front() &&
                       tas_joiner.back() == tas_joiner.front();
  return result;
}

SCM_BENCH_REGISTER("universal.catchup", "E7",
                   "generic composition transfers linear state; the TAS "
                   "transfers a constant switch value",
                   Backend::kSim, run);

}  // namespace
