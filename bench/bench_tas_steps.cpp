// Scenario tas.steps (E1) — step complexity of the speculative TAS
// (Theorem 4, Section 6.1).
//
// Claims regenerated:
//  * A1 (and therefore the composed TAS's fast path) has *constant*
//    step complexity: solo executions cost the same handful of register
//    steps (and zero RMWs) at every process count;
//  * the composed TAS stays wait-free under contention at O(1) steps
//    per operation (one doorway pass + at most one hardware RMW).
//
// The step counts come from the deterministic simulator, so they are
// exact (not sampled): every shared-memory access is counted.
#include <memory>
#include <set>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "tas/speculative_tas.hpp"
#include "workload/sim_metrics.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::Simulator;

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

// Exact solo step count of one composed test-and-set at process count n.
StepCounters solo_steps(int n) {
  Simulator s;
  SpeculativeTas<> tas;
  s.add_process(
      [&](SimContext& ctx) { (void)tas.test_and_set(ctx, tas_req(1, 0)); });
  for (int p = 1; p < n; ++p) s.add_process([](SimContext&) {});
  sim::SequentialSchedule sched;
  s.run(sched);
  return s.counters(0);
}

ScenarioResult run(const BenchParams& params) {
  const SchedulePolicy policy =
      SchedulePolicy::parse(params.schedule, params.seed);
  const int sweeps = params.sweeps(4, 2, 20);

  std::set<int> ns{1, 2};
  ns.insert(params.threads);
  ns.insert(std::min(2 * params.threads, 32));

  ScenarioResult result;
  std::vector<std::uint64_t> solo_totals;
  bool zero_solo_rmws = true;
  for (int n : ns) {
    const StepCounters sc = solo_steps(n);
    solo_totals.push_back(sc.total());
    zero_solo_rmws = zero_solo_rmws && sc.rmws == 0;

    PhaseMetrics pm;
    pm.phase = "contended n=" + std::to_string(n);
    double max_steps_per_op = 0.0;
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      Simulator s;
      auto tas = std::make_shared<SpeculativeTas<>>();
      for (int p = 0; p < n; ++p) {
        s.add_process([tas, p](SimContext& ctx) {
          (void)tas->test_and_set(
              ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
        });
      }
      auto sched = policy.make(static_cast<std::uint64_t>(n) * 1000 +
                               static_cast<std::uint64_t>(sweep));
      s.run(*sched);
      for (int p = 0; p < n; ++p) {
        const StepCounters& c = s.counters(static_cast<ProcessId>(p));
        pm.steps += c.total();
        pm.rmws += c.rmws;
        max_steps_per_op =
            std::max(max_steps_per_op, static_cast<double>(c.total()));
        ++pm.ops;
      }
    }
    pm.extra["solo_steps"] = static_cast<double>(sc.total());
    pm.extra["solo_rmws"] = static_cast<double>(sc.rmws);
    pm.extra["max_steps_per_op"] = max_steps_per_op;
    result.phases.push_back(std::move(pm));
  }

  const bool solo_constant =
      std::set<std::uint64_t>(solo_totals.begin(), solo_totals.end()).size() ==
      1;
  result.claim =
      "solo steps constant in n with 0 RMWs (register-only fast path)";
  result.claim_holds = solo_constant && zero_solo_rmws;
  return result;
}

SCM_BENCH_REGISTER("tas.steps", "E1",
                   "step complexity of the speculative TAS (Theorem 4)",
                   Backend::kSim, run);

}  // namespace
