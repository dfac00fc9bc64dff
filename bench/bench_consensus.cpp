// Scenario consensus.cost (E5) — cost of the abortable consensus
// building blocks (Appendix A).
//
// Claims regenerated:
//  * SplitConsensus: O(1) fast path, independent of n; registers only;
//    commits in the absence of interval contention;
//  * AbortableBakery: Θ(n) fast path (three collects over n slots);
//    registers only; commits in the absence of step contention;
//  * CasConsensus: 1 RMW, wait-free, but consensus number ∞ — the cost
//    Proposition 2 says is unavoidable for wait-free universality.
#include <memory>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "consensus/abortable_bakery.hpp"
#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::Simulator;

template <class Cons>
Cons make_cons(int n) {
  if constexpr (std::is_constructible_v<Cons, int>) {
    return Cons(n);
  } else {
    (void)n;
    return Cons();
  }
}

template <class Cons>
StepCounters solo_steps(int n) {
  Simulator s;
  Cons cons = make_cons<Cons>(n);
  s.add_process([&](SimContext& ctx) { (void)cons.run(ctx, kBottom, 42); });
  for (int p = 1; p < n; ++p) s.add_process([](SimContext&) {});
  sim::SequentialSchedule sched;
  s.run(sched);
  return s.counters(0);
}

template <class Cons>
PhaseMetrics contended_phase(const char* name, int n, int sweeps,
                             const SchedulePolicy& policy) {
  PhaseMetrics pm;
  pm.phase = name;
  std::uint64_t aborts = 0;
  for (int i = 0; i < sweeps; ++i) {
    Simulator s;
    Cons cons = make_cons<Cons>(n);
    std::vector<int> aborted(n, 0);
    for (int p = 0; p < n; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const auto r = cons.run(ctx, kBottom, 100 + p);
        aborted[p] = r.committed() ? 0 : 1;
      });
    }
    auto sched = policy.make(static_cast<std::uint64_t>(i) * 53 + 11);
    s.run(*sched);
    for (int p = 0; p < n; ++p) {
      aborts += static_cast<std::uint64_t>(aborted[p]);
      const StepCounters& c = s.counters(static_cast<ProcessId>(p));
      pm.steps += c.total();
      pm.rmws += c.rmws;
      ++pm.ops;
    }
  }
  pm.extra["abort_pct"] =
      pm.ops == 0 ? 0.0
                  : 100.0 * static_cast<double>(aborts) /
                        static_cast<double>(pm.ops);
  return pm;
}

ScenarioResult run(const BenchParams& params) {
  const SchedulePolicy policy =
      SchedulePolicy::parse(params.schedule, params.seed);

  ScenarioResult result;

  // Solo step complexity vs n — a fixed sweep so the asymptotic claim
  // is checkable at any --ops.
  std::uint64_t split2 = 0, split32 = 0, bakery2 = 0, bakery32 = 0;
  const auto solo_phase = [](const char* name, int n, const StepCounters& c) {
    PhaseMetrics pm;
    pm.phase = std::string("solo ") + name + " n=" + std::to_string(n);
    pm.ops = 1;  // one propose
    pm.steps = c.total();
    pm.rmws = c.rmws;
    return pm;
  };
  for (int n : {2, 4, 8, 16, 32}) {
    const auto sc = solo_steps<SplitConsensus>(n);
    const auto bc = solo_steps<AbortableBakery>(n);
    const auto cc = solo_steps<CasConsensus>(n);
    result.phases.push_back(solo_phase("split", n, sc));
    result.phases.push_back(solo_phase("bakery", n, bc));
    result.phases.push_back(solo_phase("cas", n, cc));
    if (n == 2) {
      split2 = sc.total();
      bakery2 = bc.total();
    }
    if (n == 32) {
      split32 = sc.total();
      bakery32 = bc.total();
    }
  }

  // Abort rates under contention at the requested process count.
  const int n = std::max(2, params.threads);
  const int sweeps = params.sweeps(2, 4, 300);
  result.phases.push_back(
      contended_phase<SplitConsensus>("contended split", n, sweeps, policy));
  result.phases.push_back(contended_phase<AbortableBakery>(
      "contended bakery", n, sweeps, policy));
  result.phases.push_back(
      contended_phase<CasConsensus>("contended cas", n, sweeps, policy));

  result.claim = "SplitConsensus solo steps constant in n; AbortableBakery "
                 "grows linearly (>=4x from n=2 to n=32)";
  result.claim_holds = split2 == split32 && bakery32 >= 4 * bakery2;
  return result;
}

SCM_BENCH_REGISTER("consensus.cost", "E5",
                   "abortable consensus building blocks: solo steps vs n, "
                   "abort rates under contention",
                   Backend::kSim, run);

}  // namespace
