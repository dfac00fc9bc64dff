// Scenario tas.fences (E4) — fence/RMW complexity of the TAS
// implementations (Section 1: "our implementation is optimal in terms
// of fence complexity [7]").
//
// "Laws of Order" [7] proves a linearizable TAS must use expensive
// synchronization (RMW or store-load fence) on some path; optimality
// means not paying MORE than the minimum and not paying it on the
// speculative path. Claims regenerated (exact counts from the
// simulator):
//  * uncontended operation: 0 RMWs for composed and solo-fast TAS,
//    1 for hardware;
//  * any operation, any schedule: at most 1 RMW for the composed TAS
//    (the single hardware fallback), exactly 1 for hardware.
#include <memory>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "sim/schedules.hpp"
#include "sim/sim_platform.hpp"
#include "sim/simulator.hpp"
#include "tas/speculative_tas.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::SimPlatform;
using sim::Simulator;

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

// Bare hardware TAS with the same outer interface.
struct HardwareOnly {
  template <class Ctx>
  TasOutcome test_and_set(Ctx& ctx, const Request&) {
    const int prev = cell.test_and_set(ctx);
    return TasOutcome{prev == 0 ? TasSpec::kWinner : TasSpec::kLoser,
                      TasPath::kHardware};
  }
  sim::SimPlatform::Tas cell;
};

struct RmwStats {
  std::uint64_t solo_rmws = 0;
  std::uint64_t max_rmws = 0;
  PhaseMetrics contended;
};

template <class Tas>
RmwStats measure(const char* name, int n, int sweeps,
                 const SchedulePolicy& policy) {
  RmwStats out;
  out.contended.phase = name;
  {
    Simulator s;
    Tas tas;
    s.add_process(
        [&](SimContext& ctx) { (void)tas.test_and_set(ctx, tas_req(1, 0)); });
    sim::SequentialSchedule sched;
    s.run(sched);
    out.solo_rmws = s.counters(0).rmws;
  }
  for (int i = 0; i < sweeps; ++i) {
    Simulator s;
    Tas tas;
    for (int p = 0; p < n; ++p) {
      s.add_process([&tas, p](SimContext& ctx) {
        (void)tas.test_and_set(ctx,
                               tas_req(static_cast<std::uint64_t>(p) + 1, p));
      });
    }
    auto sched = policy.make(static_cast<std::uint64_t>(i) * 977 + 3);
    s.run(*sched);
    for (int p = 0; p < n; ++p) {
      const StepCounters& c = s.counters(static_cast<ProcessId>(p));
      out.max_rmws = std::max(out.max_rmws, c.rmws);
      out.contended.steps += c.total();
      out.contended.rmws += c.rmws;
      ++out.contended.ops;
    }
  }
  out.contended.extra["solo_rmws"] = static_cast<double>(out.solo_rmws);
  out.contended.extra["max_rmws_per_op"] = static_cast<double>(out.max_rmws);
  return out;
}

ScenarioResult run(const BenchParams& params) {
  const SchedulePolicy policy =
      SchedulePolicy::parse(params.schedule, params.seed);
  const int n = params.threads;
  const int sweeps = params.sweeps(1, 8, 200);

  const auto spec =
      measure<SpeculativeTas<SimPlatform>>("speculative (A1;A2)", n, sweeps,
                                           policy);
  const auto solofast =
      measure<SoloFastTas<SimPlatform>>("solo-fast (App. B)", n, sweeps,
                                        policy);
  const auto hw = measure<HardwareOnly>("hardware TAS", n, sweeps, policy);

  ScenarioResult result;
  result.phases = {spec.contended, solofast.contended, hw.contended};
  result.claim = "speculative/solo-fast pay 0 RMWs uncontended and at most "
                 "1 ever; hardware always pays 1";
  result.claim_holds = spec.solo_rmws == 0 && solofast.solo_rmws == 0 &&
                       spec.max_rmws <= 1 && solofast.max_rmws <= 1 &&
                       hw.solo_rmws == 1;
  return result;
}

SCM_BENCH_REGISTER("tas.fences", "E4",
                   "RMW (fence) complexity per test-and-set operation",
                   Backend::kSim, run);

}  // namespace
