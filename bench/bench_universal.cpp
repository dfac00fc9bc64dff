// Scenario universal.phased (E6) — the composable universal
// construction under phased contention (Proposition 1): every
// sequential type has an Abstract implementation that uses only
// registers when uncontended and reverts to CAS otherwise.
//
// Workload: a shared fetch&increment counter behind the three-stage
// chain (contention-free SplitConsensus -> obstruction-free
// AbortableBakery -> wait-free CasConsensus). Phases alternate between
// sequential (no contention) and randomly interleaved (contention).
// We report, per phase style, which stage served the commits and how
// many RMW steps were spent.
#include <set>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "consensus/abortable_bakery.hpp"
#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "history/specs.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "universal/composable_universal.hpp"
#include "universal/static_chain.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::Simulator;

using SplitStage = ComposableUniversal<CounterSpec, SplitConsensus, 48>;
using BakeryStage = ComposableUniversal<CounterSpec, AbortableBakery, 48>;
using CasStage = ComposableUniversal<CounterSpec, CasConsensus, 48>;

struct PhaseResult {
  std::uint64_t commits_by_stage[3] = {0, 0, 0};
  std::uint64_t steps = 0;
  std::uint64_t rmws = 0;
  std::uint64_t ops = 0;
  bool correct = true;  // fetch&inc responses unique and gap-free
};

PhaseResult run_phase(int n, int ops_per_proc, sim::Schedule& sched) {
  SplitStage split(n, 48, "split (registers)");
  BakeryStage bakery(n, 48, "bakery (registers)");
  CasStage cas(n, 48, "cas (hardware)");
  StaticAbstractChain chain(n, split, bakery, cas);
  Simulator s;
  std::vector<std::vector<Response>> responses(n);
  for (int p = 0; p < n; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      for (int i = 0; i < ops_per_proc; ++i) {
        const auto id = static_cast<std::uint64_t>(p) * 1000 +
                        static_cast<std::uint64_t>(i) + 1;
        responses[p].push_back(
            chain.perform(ctx, Request{id, p, CounterSpec::kFetchInc, 0})
                .response);
      }
    });
  }
  s.run(sched);

  PhaseResult out;
  for (int p = 0; p < n; ++p) {
    const StepCounters& c = s.counters(static_cast<ProcessId>(p));
    out.steps += c.total();
    out.rmws += c.rmws;
    for (std::size_t st = 0; st < 3; ++st) {
      out.commits_by_stage[st] += chain.commits_by(p, st);
    }
  }
  std::set<Response> all;
  for (const auto& rs : responses) {
    for (Response r : rs) all.insert(r);
  }
  out.ops = static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(ops_per_proc);
  out.correct = all.size() == out.ops && !all.empty() && *all.begin() == 0 &&
                *all.rbegin() == static_cast<Response>(out.ops - 1);
  return out;
}

PhaseMetrics to_metrics(const std::string& name, const PhaseResult& r) {
  PhaseMetrics pm;
  pm.phase = name;
  pm.ops = r.ops;
  pm.steps = r.steps;
  pm.rmws = r.rmws;
  pm.extra["stage0_commits"] = static_cast<double>(r.commits_by_stage[0]);
  pm.extra["stage1_commits"] = static_cast<double>(r.commits_by_stage[1]);
  pm.extra["stage2_commits"] = static_cast<double>(r.commits_by_stage[2]);
  pm.extra["linearizable"] = r.correct ? 1.0 : 0.0;
  return pm;
}

ScenarioResult run(const BenchParams& params) {
  const SchedulePolicy policy =
      SchedulePolicy::parse(params.schedule, params.seed);
  const int ops_per_proc =
      static_cast<int>(std::clamp<std::uint64_t>(params.ops / 16, 2, 8));
  const int contended_runs = params.sweeps(8, 2, 10);

  ScenarioResult result;
  bool all_correct = true;
  std::uint64_t uncontended_stage12 = 0;
  for (int n : {2, 4}) {
    if (n > std::max(2, params.threads)) break;
    sim::SequentialSchedule seq;
    const PhaseResult solo = run_phase(n, ops_per_proc, seq);
    all_correct = all_correct && solo.correct;
    uncontended_stage12 += solo.commits_by_stage[1] + solo.commits_by_stage[2];
    result.phases.push_back(
        to_metrics("sequential n=" + std::to_string(n), solo));

    PhaseResult contended{};
    for (int i = 0; i < contended_runs; ++i) {
      auto sched = policy.make(static_cast<std::uint64_t>(n) * 100 +
                               static_cast<std::uint64_t>(i) * 101);
      const PhaseResult r = run_phase(n, ops_per_proc, *sched);
      for (int st = 0; st < 3; ++st) {
        contended.commits_by_stage[st] += r.commits_by_stage[st];
      }
      contended.steps += r.steps;
      contended.rmws += r.rmws;
      contended.ops += r.ops;
      contended.correct = contended.correct && r.correct;
    }
    all_correct = all_correct && contended.correct;
    result.phases.push_back(
        to_metrics("contended n=" + std::to_string(n), contended));
  }

  result.claim = "sequential phases commit entirely in the register-only "
                 "stage 0 and fetch&inc stays linearizable (Prop. 1)";
  result.claim_holds = all_correct && uncontended_stage12 == 0;
  return result;
}

SCM_BENCH_REGISTER("universal.phased", "E6",
                   "composable universal construction (fetch&inc) under "
                   "phased contention",
                   Backend::kSim, run);

}  // namespace
