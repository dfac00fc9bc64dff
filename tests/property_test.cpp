// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// the paper's safety theorems checked across the cross-product of
// process counts × schedule families × seed blocks. Each instantiation
// is one cell of the sweep, so failures name their exact configuration.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "consensus/abortable_bakery.hpp"
#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "core/constraint.hpp"
#include "core/interpretation.hpp"
#include "core/trace.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "tas/long_lived_tas.hpp"
#include "tas/speculative_tas.hpp"

namespace scm {
namespace {

using sim::SimContext;
using sim::Simulator;

enum class SchedKind { kSequential, kRoundRobin1, kRoundRobin3, kRandom, kSticky50 };

struct SweepParam {
  int processes;
  SchedKind sched;
  std::uint64_t seed_base;
  int seeds;

  friend std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
    const char* k = "?";
    switch (p.sched) {
      case SchedKind::kSequential: k = "sequential"; break;
      case SchedKind::kRoundRobin1: k = "rr1"; break;
      case SchedKind::kRoundRobin3: k = "rr3"; break;
      case SchedKind::kRandom: k = "random"; break;
      case SchedKind::kSticky50: k = "sticky50"; break;
    }
    return os << "n" << p.processes << "_" << k << "_s" << p.seed_base;
  }
};

std::unique_ptr<sim::Schedule> make_schedule(SchedKind kind,
                                             std::uint64_t seed) {
  switch (kind) {
    case SchedKind::kSequential:
      return std::make_unique<sim::SequentialSchedule>();
    case SchedKind::kRoundRobin1:
      return std::make_unique<sim::RoundRobinSchedule>(1);
    case SchedKind::kRoundRobin3:
      return std::make_unique<sim::RoundRobinSchedule>(3);
    case SchedKind::kRandom:
      return std::make_unique<sim::RandomSchedule>(seed);
    case SchedKind::kSticky50:
      return std::make_unique<sim::StickyRandomSchedule>(seed, 0.5);
  }
  return nullptr;
}

std::string param_name(const testing::TestParamInfo<SweepParam>& info) {
  std::ostringstream oss;
  oss << info.param;
  return oss.str();
}

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

// ---------------------------------------------------------------------------
// TAS: one winner + linearizability across the sweep.

class TasSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(TasSweep, OneWinnerAndLinearizable) {
  const SweepParam p = GetParam();
  for (int s = 0; s < p.seeds; ++s) {
    const std::uint64_t seed = p.seed_base + static_cast<std::uint64_t>(s);
    Simulator sim;
    SpeculativeTas<> tas;
    std::vector<TasOutcome> outs(p.processes);
    for (int pid = 0; pid < p.processes; ++pid) {
      sim.add_process([&, pid](SimContext& ctx) {
        ctx.begin_op();
        outs[pid] = tas.test_and_set(
            ctx, tas_req(static_cast<std::uint64_t>(pid) + 1, pid));
        ctx.end_op(outs[pid].value);
      });
    }
    auto sched = make_schedule(p.sched, seed);
    sim.run(*sched);

    int winners = 0;
    for (const auto& o : outs) {
      if (o.won()) ++winners;
    }
    ASSERT_EQ(winners, 1) << "seed " << seed;

    std::vector<ConcurrentOp> ops;
    for (const auto& rec : sim.ops()) {
      ConcurrentOp op;
      op.pid = rec.pid;
      op.request = tas_req(static_cast<std::uint64_t>(rec.pid) + 1, rec.pid);
      op.response = rec.output;
      op.invoke = rec.invoke_event;
      op.ret = rec.response_event;
      op.completed = rec.complete;
      ops.push_back(op);
    }
    ASSERT_TRUE(linearizable<TasSpec>(std::move(ops))) << "seed " << seed;
  }
}

TEST_P(TasSweep, A1TracesSafelyComposable) {
  const SweepParam p = GetParam();
  if (p.processes > 6) {
    GTEST_SKIP() << "interpretation search enumerates request "
                    "permutations; bounded to small universes";
  }
  TasConstraint M;
  for (int s = 0; s < p.seeds; ++s) {
    const std::uint64_t seed = p.seed_base + static_cast<std::uint64_t>(s);
    Simulator sim;
    ObstructionFreeTas<> a1;
    TraceRecorder rec;
    for (int pid = 0; pid < p.processes; ++pid) {
      sim.add_process([&, pid](SimContext& ctx) {
        const Request m = tas_req(static_cast<std::uint64_t>(pid) + 1, pid);
        rec.invoke(pid, m);
        const ModuleResult r = a1.invoke(ctx, m);
        if (r.committed()) {
          rec.commit(pid, m, r.response);
        } else {
          rec.abort(pid, m, r.switch_value);
        }
      });
    }
    auto sched = make_schedule(p.sched, seed);
    sim.run(*sched);
    const auto verdict = check_safely_composable<TasSpec>(rec.trace(), M);
    ASSERT_TRUE(verdict) << "seed " << seed << ": " << verdict.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, TasSweep,
    testing::Values(
        SweepParam{2, SchedKind::kSequential, 1, 1},
        SweepParam{2, SchedKind::kRoundRobin1, 1, 1},
        SweepParam{2, SchedKind::kRandom, 1000, 40},
        SweepParam{3, SchedKind::kRoundRobin1, 1, 1},
        SweepParam{3, SchedKind::kRoundRobin3, 1, 1},
        SweepParam{3, SchedKind::kRandom, 2000, 40},
        SweepParam{3, SchedKind::kSticky50, 3000, 40},
        SweepParam{4, SchedKind::kRandom, 4000, 30},
        SweepParam{4, SchedKind::kSticky50, 5000, 30},
        SweepParam{6, SchedKind::kRandom, 6000, 20},
        SweepParam{8, SchedKind::kRandom, 7000, 10}),
    param_name);

// ---------------------------------------------------------------------------
// Consensus agreement across the sweep (all three implementations).

template <class Cons>
class ConsensusSweepBase : public testing::TestWithParam<SweepParam> {
 protected:
  void run_sweep() {
    const SweepParam p = GetParam();
    for (int s = 0; s < p.seeds; ++s) {
      const std::uint64_t seed = p.seed_base + static_cast<std::uint64_t>(s);
      Simulator sim;
      Cons cons = [&] {
        if constexpr (std::is_constructible_v<Cons, int>) {
          return Cons(p.processes);
        } else {
          return Cons();
        }
      }();
      std::vector<std::int64_t> decided(p.processes, kBottom);
      for (int pid = 0; pid < p.processes; ++pid) {
        sim.add_process([&, pid](SimContext& ctx) {
          const auto r = cons.run(ctx, kBottom, 100 + pid);
          if (r.committed()) decided[pid] = r.value;
        });
      }
      auto sched = make_schedule(p.sched, seed);
      sim.run(*sched);
      std::set<std::int64_t> committed;
      for (std::int64_t v : decided) {
        if (v != kBottom) committed.insert(v);
      }
      ASSERT_LE(committed.size(), 1u)
          << "disagreement at seed " << seed;
      for (std::int64_t v : committed) {
        ASSERT_GE(v, 100);
        ASSERT_LT(v, 100 + p.processes);
      }
    }
  }
};

using SplitSweep = ConsensusSweepBase<SplitConsensus>;
TEST_P(SplitSweep, Agreement) { run_sweep(); }
INSTANTIATE_TEST_SUITE_P(
    Schedules, SplitSweep,
    testing::Values(SweepParam{2, SchedKind::kRandom, 100, 40},
                    SweepParam{3, SchedKind::kRandom, 200, 40},
                    SweepParam{3, SchedKind::kRoundRobin1, 1, 1},
                    SweepParam{4, SchedKind::kSticky50, 300, 30},
                    SweepParam{6, SchedKind::kRandom, 400, 20}),
    param_name);

using BakerySweep = ConsensusSweepBase<AbortableBakery>;
TEST_P(BakerySweep, Agreement) { run_sweep(); }
INSTANTIATE_TEST_SUITE_P(
    Schedules, BakerySweep,
    testing::Values(SweepParam{2, SchedKind::kRandom, 100, 40},
                    SweepParam{3, SchedKind::kRandom, 200, 40},
                    SweepParam{3, SchedKind::kRoundRobin3, 1, 1},
                    SweepParam{4, SchedKind::kSticky50, 300, 30},
                    SweepParam{6, SchedKind::kRandom, 400, 15}),
    param_name);

using CasSweep = ConsensusSweepBase<CasConsensus>;
TEST_P(CasSweep, Agreement) { run_sweep(); }
INSTANTIATE_TEST_SUITE_P(
    Schedules, CasSweep,
    testing::Values(SweepParam{2, SchedKind::kRandom, 100, 40},
                    SweepParam{4, SchedKind::kRandom, 200, 40},
                    SweepParam{8, SchedKind::kRandom, 300, 20}),
    param_name);

// ---------------------------------------------------------------------------
// Long-lived rounds: Count advances exactly once per win across the
// sweep, and per-round winners are unique.

class LongLivedSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(LongLivedSweep, RoundsMatchWins) {
  const SweepParam p = GetParam();
  for (int s = 0; s < p.seeds; ++s) {
    const std::uint64_t seed = p.seed_base + static_cast<std::uint64_t>(s);
    Simulator sim;
    LongLivedTas<> tas(p.processes, 64);
    std::vector<int> wins(p.processes, 0);
    for (int pid = 0; pid < p.processes; ++pid) {
      sim.add_process([&, pid](SimContext& ctx) {
        for (int round = 0; round < 3; ++round) {
          const auto id = static_cast<std::uint64_t>(pid) * 100 +
                          static_cast<std::uint64_t>(round) + 1;
          if (tas.test_and_set(ctx, tas_req(id, pid)).won()) {
            ++wins[pid];
            tas.reset(ctx);
          }
        }
      });
    }
    auto sched = make_schedule(p.sched, seed);
    sim.run(*sched);
    int total = 0;
    for (int w : wins) total += w;
    ASSERT_EQ(tas.round(), static_cast<std::uint64_t>(total))
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, LongLivedSweep,
    testing::Values(SweepParam{2, SchedKind::kRandom, 10, 30},
                    SweepParam{3, SchedKind::kRandom, 20, 30},
                    SweepParam{3, SchedKind::kSticky50, 30, 30},
                    SweepParam{4, SchedKind::kRandom, 40, 20}),
    param_name);

}  // namespace
}  // namespace scm
