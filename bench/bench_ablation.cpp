// Scenario ablation.repairs — the two pseudocode repairs (README,
// "Deviations from the paper's pseudocode").
//
// Runs the PAPER-LITERAL variants side by side with the repaired ones
// and lets the repository's own oracles judge them:
//
//  A. Algorithm 1's entry check aborting with W ("stay in contention")
//     lets a process that invoked after a loser already committed win
//     the hardware TAS: the composed object produces non-linearizable
//     executions. The repaired entry check (abort L) never does.
//
//  B. Algorithm 3 resetting the splitter only on the V-writing path
//     makes a decided consensus instance abort its second uncontended
//     re-reader, poisoning the universal construction in a
//     contention-free execution (contradicting Proposition 1). The
//     repaired variant keeps committing.
//
// The claim covers the repaired algorithms only (a safety property at
// any sweep count); the literal variants' failure counts are reported
// as extra columns — observing a failure needs enough sweeps.
#include <memory>
#include <optional>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "consensus/consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "consensus/splitter.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/platform.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "tas/a2_module.hpp"
#include "tas/speculative_tas.hpp"

namespace {

using namespace scm;
using namespace scm::bench;
using sim::SimContext;
using sim::Simulator;

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

// --------------------------------------------------------------------------
// Variant A: Algorithm 1 exactly as printed (entry check aborts W when
// V = 0), composed with A2.

class PaperLiteralA1 {
 public:
  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request&,
                      std::optional<SwitchValue> init = std::nullopt) {
    if (aborted_.read(ctx)) {
      if (value_.read(ctx) == 0) {
        return ModuleResult::abort_with(TasConstraint::kW);  // the bug
      }
      return ModuleResult::abort_with(TasConstraint::kL);
    }
    if (value_.read(ctx) == 1 ||
        (init.has_value() && *init == TasConstraint::kL)) {
      return ModuleResult::commit(TasSpec::kLoser);
    }
    if (pace_.read(ctx) != kInvalidProcess) {
      return ModuleResult::commit(TasSpec::kLoser);
    }
    pace_.write(ctx, ctx.id());
    if (set_.read(ctx) != kInvalidProcess) {
      return ModuleResult::commit(TasSpec::kLoser);
    }
    set_.write(ctx, ctx.id());
    if (pace_.read(ctx) == ctx.id()) {
      value_.write(ctx, 1);
      if (!aborted_.read(ctx)) return ModuleResult::commit(TasSpec::kWinner);
      return ModuleResult::abort_with(TasConstraint::kW);
    }
    aborted_.write(ctx, true);
    if (value_.read(ctx) == 1) return ModuleResult::commit(TasSpec::kLoser);
    return ModuleResult::abort_with(TasConstraint::kW);
  }

 private:
  NativeRegister<ProcessId> pace_{kInvalidProcess};
  NativeRegister<ProcessId> set_{kInvalidProcess};
  NativeRegister<bool> aborted_{false};
  NativeRegister<int> value_{0};
};

struct SweepOutcome {
  int bad = 0;
  std::uint64_t steps = 0;
  std::uint64_t rmws = 0;
  std::uint64_t ops = 0;
};

template <class A1Variant>
SweepOutcome count_nonlinearizable_runs(int sweeps, std::uint64_t seed) {
  SweepOutcome out;
  for (int i = 0; i < sweeps; ++i) {
    Simulator s;
    A1Variant a1;
    WaitFreeTas a2;
    constexpr int kN = 4;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const Request m = tas_req(static_cast<std::uint64_t>(p) + 1, p);
        ctx.begin_op();
        ModuleResult r = a1.invoke(ctx, m);
        if (!r.committed()) r = a2.invoke(ctx, m, r.switch_value);
        ctx.end_op(r.response);
      });
    }
    sim::RandomSchedule sched(seed + static_cast<std::uint64_t>(i) * 7919 +
                              176);
    s.run(sched);
    std::vector<ConcurrentOp> ops;
    for (const auto& rec : s.ops()) {
      ConcurrentOp op;
      op.pid = rec.pid;
      op.request = tas_req(static_cast<std::uint64_t>(rec.pid) + 1, rec.pid);
      op.response = rec.output;
      op.invoke = rec.invoke_event;
      op.ret = rec.response_event;
      op.completed = rec.complete;
      ops.push_back(op);
    }
    if (!linearizable<TasSpec>(std::move(ops))) ++out.bad;
    for (int p = 0; p < kN; ++p) {
      const StepCounters& c = s.counters(static_cast<ProcessId>(p));
      out.steps += c.total();
      out.rmws += c.rmws;
      ++out.ops;
    }
  }
  return out;
}

// --------------------------------------------------------------------------
// Variant B: Algorithm 3 without the read-commit splitter reset.

class PaperLiteralSplitConsensus {
 public:
  template <class Ctx>
  ConsensusResult propose(Ctx& ctx, std::int64_t v) {
    if (splitter_.get(ctx) == SplitterVerdict::kStop) {
      const std::int64_t current = value_.read(ctx);
      if (current != kBottom) {
        if (!contended_.read(ctx)) {
          return ConsensusResult::commit(current);  // no reset: the bug
        }
        return ConsensusResult::abort_with(current);
      }
      value_.write(ctx, v);
      if (!contended_.read(ctx)) {
        splitter_.reset(ctx);
        return ConsensusResult::commit(v);
      }
      return ConsensusResult::abort_with(value_.read(ctx));
    }
    contended_.write(ctx, true);
    return ConsensusResult::abort_with(value_.read(ctx));
  }

  template <class Ctx>
  ConsensusResult run(Ctx& ctx, std::int64_t old, std::int64_t v) {
    const ConsensusResult first = propose(ctx, old);
    if (!first.committed()) return ConsensusResult::abort_with(old);
    if (first.value == kBottom) return propose(ctx, v);
    return ConsensusResult::commit(first.value);
  }

 private:
  Splitter splitter_;
  NativeRegister<std::int64_t> value_{kBottom};
  NativeRegister<bool> contended_{false};
};

// Three processes read a decided instance strictly one after another;
// returns how many of them aborted (must be 0 for contention-free
// progress).
template <class Cons>
int sequential_rereader_aborts() {
  Simulator s;
  Cons cons;
  int aborts = 0;
  for (int p = 0; p < 3; ++p) {
    s.add_process([&](SimContext& ctx) {
      const auto r = cons.run(ctx, kBottom, 42);
      if (!r.committed()) ++aborts;
    });
  }
  sim::SequentialSchedule sched;
  s.run(sched);
  return aborts;
}

ScenarioResult run(const BenchParams& params) {
  const int sweeps = params.sweeps(1, 50, 3000);

  const SweepOutcome literal =
      count_nonlinearizable_runs<PaperLiteralA1>(sweeps, params.seed);
  const SweepOutcome repaired =
      count_nonlinearizable_runs<ObstructionFreeTas<true>>(sweeps,
                                                           params.seed);
  const int literal_aborts =
      sequential_rereader_aborts<PaperLiteralSplitConsensus>();
  const int repaired_aborts = sequential_rereader_aborts<SplitConsensus>();

  ScenarioResult result;
  {
    PhaseMetrics pm;
    pm.phase = "A1 entry check";
    pm.ops = repaired.ops;
    pm.steps = repaired.steps;
    pm.rmws = repaired.rmws;
    pm.extra["literal_nonlinearizable_runs"] = static_cast<double>(literal.bad);
    pm.extra["repaired_nonlinearizable_runs"] =
        static_cast<double>(repaired.bad);
    pm.extra["sweeps"] = static_cast<double>(sweeps);
    result.phases.push_back(std::move(pm));
  }
  {
    PhaseMetrics pm;
    pm.phase = "splitter read-path reset";
    pm.ops = 3;
    pm.extra["literal_sequential_aborts"] = static_cast<double>(literal_aborts);
    pm.extra["repaired_sequential_aborts"] =
        static_cast<double>(repaired_aborts);
    result.phases.push_back(std::move(pm));
  }

  result.claim = "the repaired algorithms show no non-linearizable runs and "
                 "no spurious sequential aborts (README: deviations from the "
                 "paper's pseudocode)";
  result.claim_holds = repaired.bad == 0 && repaired_aborts == 0;
  return result;
}

SCM_BENCH_REGISTER("ablation.repairs", "A/B",
                   "paper-literal pseudocode vs the repaired algorithms",
                   Backend::kSim, run);

}  // namespace
