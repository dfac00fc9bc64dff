// Scenario combining.steps — the composition stacks' shared-memory cost
// under the simulator: 3 processes fetch&inc through
//   * Combining<Pipeline<Relay, Relay, TicketSink>, 4>, a depth-3 chain
//     behind the in-process flat-combining wrapper, and
//   * ShmCombining<ShmCounter, 4>, the cross-process wrapper run by
//     three simulated processes,
// each run interleaved by the --schedule policy. Exact steps and RMWs
// per op, and the achieved batch size (ops_per_combine), so a change to
// the slot protocol's or the chain walk's counted accesses shows in a
// step-count diff of two reports.
//
// Claim (a safety property, at any --ops): every op commits a distinct
// ticket in [0, ops), and the counter's final value equals the op
// count.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "core/combining.hpp"
#include "core/pipeline.hpp"
#include "history/specs.hpp"
#include "runtime/platform.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "shm/shm_combining.hpp"
#include "shm/shm_counter.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::Simulator;

constexpr int kProcs = 3;

// One unit of composition plumbing: read a register, abort with the
// hop count plus one.
class Relay {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    (void)gate_.read(ctx);
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }

 private:
  NativeRegister<int> gate_{0};
};

// Commits a unique ticket (fetch&inc semantics).
class TicketSink {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    return ModuleResult::commit(static_cast<Response>(count_.fetch_add(ctx)));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

struct InProcess {
  using Type = Combining<Pipeline<Relay, Relay, TicketSink>, 4>;
  static constexpr const char* kPhase =
      "Combining<Pipeline<relay,relay,ticket>>";
  static std::uint64_t count(Type& obj) {
    return obj.object().stage<2>().count();
  }
};

#if SCM_HAS_POSIX_SHM
struct CrossProcess {
  using Type = ShmCombining<ShmCounter, 4>;
  static constexpr const char* kPhase = "ShmCombining<ShmCounter>";
  static std::uint64_t count(Type& obj) {
    return static_cast<std::uint64_t>(obj.object().value());
  }
};
#endif

// `runs` fresh objects, each driven by kProcs processes of `per_proc`
// fetch&incs under one schedule of `policy`. Sets `ok` false if any run
// hits the step limit, repeats or skips a ticket, or ends with a count
// other than its op count.
template <class Stack>
PhaseMetrics measure(int runs, int per_proc, const SchedulePolicy& policy,
                     bool& ok) {
  PhaseMetrics pm;
  pm.phase = Stack::kPhase;
  std::uint64_t rounds = 0;
  std::uint64_t combined = 0;
  for (int run = 0; run < runs; ++run) {
    auto obj = std::make_unique<typename Stack::Type>();
    const auto total = static_cast<std::size_t>(kProcs * per_proc);
    std::vector<std::uint8_t> seen(total, 0);
    bool run_ok = true;
    Simulator s;
    for (int p = 0; p < kProcs; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        for (int i = 0; i < per_proc; ++i) {
          const auto id = static_cast<std::uint64_t>(p * per_proc + i) + 1;
          const ModuleResult r = obj->invoke(
              ctx, Request{id, ctx.id(), CounterSpec::kFetchInc, 0});
          const auto ticket = static_cast<std::uint64_t>(r.response);
          if (!r.committed() || ticket >= total || seen[ticket]++ != 0) {
            run_ok = false;
          }
        }
      });
    }
    auto sched = policy.make(static_cast<std::uint64_t>(run) * 131 + 7);
    s.run(*sched);
    ok = ok && run_ok && !s.hit_step_limit() && Stack::count(*obj) == total;
    for (int p = 0; p < kProcs; ++p) {
      pm.steps += s.counters(static_cast<ProcessId>(p)).total();
      pm.rmws += s.counters(static_cast<ProcessId>(p)).rmws;
    }
    pm.ops += total;
    rounds += obj->combine_rounds();
    combined += obj->combined_ops();
  }
  pm.extra["ops_per_combine"] =
      rounds == 0 ? 0.0
                  : static_cast<double>(combined) / static_cast<double>(rounds);
  return pm;
}

ScenarioResult run(const BenchParams& params) {
  const SchedulePolicy policy =
      SchedulePolicy::parse(params.schedule, params.seed);
  const int per_proc = params.sweeps(8, 2, 32);
  const int runs = params.sweeps(32, 2, 8);

  ScenarioResult result;
  bool ok = true;
  result.phases.push_back(measure<InProcess>(runs, per_proc, policy, ok));
#if SCM_HAS_POSIX_SHM
  result.phases.push_back(measure<CrossProcess>(runs, per_proc, policy, ok));
#endif
  result.claim = "every combined op commits a distinct ticket and the "
                 "final count equals the op count";
  result.claim_holds = ok;
  return result;
}

SCM_BENCH_REGISTER("combining.steps", "stack",
                   "flat-combining stacks under the simulator: steps and "
                   "RMWs per op, ops per combine pass",
                   Backend::kSim, run);

}  // namespace
