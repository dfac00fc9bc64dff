// Scenario tas.longlived (E8/F1) — the long-lived resettable TAS
// (Section 6.3, Figure 1).
//
// Claims regenerated:
//  * reset reverts the object to the speculative module: in uncontended
//    round sequences EVERY round is won on the A1 (register) path at
//    constant cost, no matter how many rounds have passed;
//  * under contended phases, rounds flow through the hardware module
//    (Figure 1's forward edge); once contention stops, the reset
//    mechanism brings execution back to the speculative module
//    (Figure 1's back edge) — we report the module-transition counts
//    that realize the figure.
#include <memory>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "tas/long_lived_tas.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::Simulator;

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

struct PhaseStats {
  std::uint64_t spec_wins = 0;
  std::uint64_t hw_wins = 0;
  std::uint64_t spec_ops = 0;
  std::uint64_t hw_ops = 0;
  std::uint64_t steps = 0;
  std::uint64_t rmws = 0;
  std::uint64_t ops = 0;
};

// One process wins/resets `rounds` times with `others` contenders
// either absent (uncontended) or interleaved under `sched`.
PhaseStats run_phase(int others, int rounds, bool contended,
                     sim::Schedule& sched) {
  PhaseStats st;
  Simulator s;
  const int n = 1 + others;
  LongLivedTas<> tas(n, static_cast<std::size_t>(rounds) * (n + 1) + 8);
  const auto round_body = [&](SimContext& ctx, ProcessId p, int count) {
    for (int r = 0; r < count; ++r) {
      const auto id = static_cast<std::uint64_t>(p) * 100000 +
                      static_cast<std::uint64_t>(r) + 1;
      const TasOutcome o = tas.test_and_set(ctx, tas_req(id, p));
      if (o.path == TasPath::kSpeculative) {
        ++st.spec_ops;
      } else {
        ++st.hw_ops;
      }
      if (o.won()) {
        (o.path == TasPath::kSpeculative ? st.spec_wins : st.hw_wins)++;
        tas.reset(ctx);
      }
      ++st.ops;
    }
  };
  s.add_process([&](SimContext& ctx) { round_body(ctx, 0, rounds); });
  for (int p = 1; p < n; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      if (!contended) return;
      round_body(ctx, static_cast<ProcessId>(p), rounds);
    });
  }
  s.run(sched);
  for (int p = 0; p < n; ++p) {
    st.steps += s.counters(static_cast<ProcessId>(p)).total();
    st.rmws += s.counters(static_cast<ProcessId>(p)).rmws;
  }
  return st;
}

PhaseMetrics to_metrics(const std::string& name, const PhaseStats& st) {
  PhaseMetrics pm;
  pm.phase = name;
  pm.ops = st.ops;
  pm.steps = st.steps;
  pm.rmws = st.rmws;
  pm.extra["speculative_ops"] = static_cast<double>(st.spec_ops);
  pm.extra["hardware_ops"] = static_cast<double>(st.hw_ops);
  pm.extra["speculative_wins"] = static_cast<double>(st.spec_wins);
  pm.extra["hardware_wins"] = static_cast<double>(st.hw_wins);
  return pm;
}

ScenarioResult run(const BenchParams& params) {
  const SchedulePolicy policy =
      SchedulePolicy::parse(params.schedule, params.seed);
  const int others = std::clamp(params.threads - 1, 1, 4);
  const int rounds = params.sweeps(4, 8, 50);
  const int contended_runs = params.sweeps(16, 2, 10);

  ScenarioResult result;

  // Uncontended: the owner wins/resets round after round.
  sim::SequentialSchedule seq;
  const PhaseStats solo = run_phase(others, rounds, /*contended=*/false, seq);
  result.phases.push_back(to_metrics("owner only", solo));

  // Contended bursts.
  PhaseStats cont{};
  for (int i = 0; i < contended_runs; ++i) {
    auto sched = policy.make(static_cast<std::uint64_t>(i) * 307 + 1);
    const PhaseStats r = run_phase(others, 10, /*contended=*/true, *sched);
    cont.spec_wins += r.spec_wins;
    cont.hw_wins += r.hw_wins;
    cont.spec_ops += r.spec_ops;
    cont.hw_ops += r.hw_ops;
    cont.steps += r.steps;
    cont.rmws += r.rmws;
    cont.ops += r.ops;
  }
  result.phases.push_back(to_metrics("contended", cont));

  // Back edge: contended prefix, then the winner runs solo again —
  // reset must restore the speculative path (Figure 1's back edge).
  PhaseStats after{};
  {
    Simulator s;
    constexpr int kN = 3;
    LongLivedTas<> tas(kN, 256);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        for (int r = 0; r < 5; ++r) {
          const auto id = static_cast<std::uint64_t>(p) * 1000 +
                          static_cast<std::uint64_t>(r) + 1;
          if (tas.test_and_set(ctx, tas_req(id, p)).won()) tas.reset(ctx);
        }
        // p0 continues alone afterwards (others are done). Snapshot its
        // counters so the tail phase reports only tail steps, not the
        // contended prefix of all processes.
        if (p == 0) {
          const std::uint64_t steps_before = ctx.counters().total();
          for (int r = 0; r < 20; ++r) {
            const auto id = 70000 + static_cast<std::uint64_t>(r);
            const TasOutcome o = tas.test_and_set(ctx, tas_req(id, 0));
            if (o.path == TasPath::kSpeculative) {
              ++after.spec_ops;
            } else {
              ++after.hw_ops;
            }
            if (o.won()) {
              tas.reset(ctx);
              (o.path == TasPath::kSpeculative ? after.spec_wins
                                               : after.hw_wins)++;
            }
            ++after.ops;
          }
          after.steps = ctx.counters().total() - steps_before;
        }
      });
    }
    auto sched = policy.make(4242);
    s.run(*sched);
  }
  result.phases.push_back(to_metrics("post-contention solo tail", after));

  result.claim = "owner-only rounds never leave the speculative module; "
                 "after contention subsides resets restore it (Fig. 1)";
  result.claim_holds = solo.hw_ops == 0 && after.spec_wins > 0;
  return result;
}

SCM_BENCH_REGISTER("tas.longlived", "E8",
                   "long-lived resettable TAS: module transitions (Figure 1)",
                   Backend::kSim, run);

}  // namespace
