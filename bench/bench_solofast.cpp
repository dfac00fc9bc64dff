// Scenario tas.solofast (E9) — the solo-fast variant (Appendix B).
//
// Claim regenerated: in the solo-fast composition a process reverts to
// the hardware object only when it ITSELF encounters step contention,
// whereas in the base composition a process may be pushed to hardware
// because ANOTHER process experienced step contention (the aborted
// flag). We measure, for a bystander process arriving around a
// contended pair, how often each variant sends the bystander to
// hardware.
#include <memory>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "tas/speculative_tas.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::Simulator;

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

// Interleaves p0/p1 heavily; the schedule reaches p2 only once the
// pair has finished.
class PairFirst final : public sim::Schedule {
 public:
  explicit PairFirst(std::uint64_t seed) : rng_(seed) {}
  ProcessId next(const View& view) override {
    std::vector<ProcessId> pair;
    for (ProcessId p : view.runnable) {
      if (p < 2) pair.push_back(p);
    }
    if (!pair.empty()) return pair[rng_.below(pair.size())];
    return view.runnable.front();
  }

 private:
  Rng rng_;
};

template <class Tas>
PhaseMetrics sweep(const char* name, int sweeps, std::uint64_t seed,
                   int* bystander_hw_out) {
  PhaseMetrics pm;
  pm.phase = name;
  int contender_hw = 0, bystander_hw = 0;
  for (int i = 0; i < sweeps; ++i) {
    Simulator s;
    Tas tas;
    std::vector<TasOutcome> outs(3);
    // p0/p1 contend; p2 (the bystander) runs after both finished.
    for (int p = 0; p < 2; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        outs[p] = tas.test_and_set(
            ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
      });
    }
    s.add_process([&](SimContext& ctx) {
      outs[2] = tas.test_and_set(ctx, tas_req(3, 2));
    });
    PairFirst sched(seed + static_cast<std::uint64_t>(i) * 17 + 3);
    s.run(sched);
    for (int p = 0; p < 2; ++p) {
      if (outs[p].path == TasPath::kHardware) ++contender_hw;
    }
    if (outs[2].path == TasPath::kHardware) ++bystander_hw;
    for (int p = 0; p < 3; ++p) {
      const StepCounters& c = s.counters(static_cast<ProcessId>(p));
      pm.steps += c.total();
      pm.rmws += c.rmws;
      ++pm.ops;
    }
  }
  pm.extra["contender_hw_ops"] = static_cast<double>(contender_hw);
  pm.extra["bystander_hw_ops"] = static_cast<double>(bystander_hw);
  *bystander_hw_out = bystander_hw;
  return pm;
}

ScenarioResult run(const BenchParams& params) {
  const int sweeps = params.sweeps(1, 16, 300);

  ScenarioResult result;
  int base_bystander_hw = 0, solofast_bystander_hw = 0;
  result.phases.push_back(sweep<SpeculativeTas<>>(
      "base (A1;A2)", sweeps, params.seed, &base_bystander_hw));
  result.phases.push_back(sweep<SoloFastTas>(
      "solo-fast (App. B)", sweeps, params.seed, &solofast_bystander_hw));

  result.claim = "in the solo-fast variant an uncontended bystander never "
                 "uses the hardware object (Appendix B)";
  result.claim_holds = solofast_bystander_hw == 0;
  return result;
}

SCM_BENCH_REGISTER("tas.solofast", "E9",
                   "solo-fast TAS: who pays for contention? (Appendix B)",
                   Backend::kSim, run);

}  // namespace
