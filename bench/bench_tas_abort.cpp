// Scenario tas.abort (E2) — abort behaviour of the obstruction-free
// module A1 (Lemma 6).
//
// Claims regenerated:
//  * A1 NEVER aborts in the absence of step contention (the progress
//    predicate of the speculative module) — the violation counter must
//    read zero across the whole sweep;
//  * abort rate tracks the step-contention rate as the scheduler moves
//    from sequential (stickiness 1.0) to maximally interleaved
//    (stickiness 0.0) — reported per phase, not part of the claim.
#include <memory>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "tas/a1_module.hpp"
#include "workload/sim_metrics.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::Simulator;

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

workload::SimMetrics sweep_stickiness(int n, double stickiness, int sweeps,
                                      std::uint64_t seed) {
  workload::SimMetrics total;
  for (int i = 0; i < sweeps; ++i) {
    auto a1 = std::make_shared<ObstructionFreeTas<>>();
    sim::StickyRandomSchedule sched(
        seed + static_cast<std::uint64_t>(i) * 131 + 7, stickiness);
    total += workload::run_sim(
        [&](Simulator& s) {
          for (int p = 0; p < n; ++p) {
            s.add_process([a1, p](SimContext& ctx) {
              ctx.begin_op();
              const ModuleResult r = a1->invoke(
                  ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
              ctx.end_op(r.committed() ? 1 : 0);
            });
          }
        },
        sched);
  }
  return total;
}

ScenarioResult run(const BenchParams& params) {
  const int n = params.threads;
  const int sweeps = params.sweeps(4, 8, 400);

  ScenarioResult result;
  std::uint64_t violations = 0;
  for (double stickiness : {0.0, 0.5, 0.9, 1.0}) {
    const workload::SimMetrics m =
        sweep_stickiness(n, stickiness, sweeps, params.seed);
    violations += m.aborts_without_step_contention;

    PhaseMetrics pm;
    pm.phase = "stickiness=" + std::to_string(stickiness).substr(0, 3);
    pm.ops = m.ops;
    pm.steps = m.total_steps;
    pm.rmws = m.total_rmws;
    pm.extra["abort_pct"] = 100.0 * m.abort_rate();
    pm.extra["step_contended_pct"] = 100.0 * m.contention_rate();
    pm.extra["aborts_without_step_contention"] =
        static_cast<double>(m.aborts_without_step_contention);
    result.phases.push_back(std::move(pm));
  }

  result.claim = "A1 never aborts in executions free of step contention "
                 "(Lemma 6)";
  result.claim_holds = violations == 0;
  return result;
}

SCM_BENCH_REGISTER("tas.abort", "E2",
                   "A1 abort behaviour vs step contention (Lemma 6)",
                   Backend::kSim, run);

}  // namespace
