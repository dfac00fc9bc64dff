// Tests for the splitter and the three consensus implementations
// (Appendix A + the CAS baseline): safety under every schedule we can
// throw at them, progress exactly under their stated conditions.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "consensus/abortable_bakery.hpp"
#include "consensus/cas_consensus.hpp"
#include "consensus/consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "consensus/splitter.hpp"
#include "sim/explorer.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"

namespace scm {
namespace {

using sim::SimContext;
using sim::Simulator;

// ---------------------------------------------------------------------------
// Splitter

TEST(Splitter, SoloProcessStops) {
  Simulator s;
  Splitter splitter;
  SplitterVerdict verdict{};
  s.add_process([&](SimContext& ctx) { verdict = splitter.get(ctx); });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_EQ(verdict, SplitterVerdict::kStop);
}

TEST(Splitter, AtMostOneStopUnderAllInterleavings) {
  auto verdicts = std::make_shared<std::vector<SplitterVerdict>>();
  auto stats = sim::explore_all_schedules(
      [&]() {
        auto s = std::make_unique<Simulator>();
        auto splitter = std::make_shared<Splitter>();
        verdicts->assign(3, SplitterVerdict::kDown);
        for (int p = 0; p < 3; ++p) {
          s->add_process([splitter, verdicts, p](SimContext& ctx) {
            (*verdicts)[p] = splitter->get(ctx);
          });
        }
        return s;
      },
      [&](Simulator&) {
        int stops = 0;
        for (auto v : *verdicts) {
          if (v == SplitterVerdict::kStop) ++stops;
        }
        EXPECT_LE(stops, 1);
      },
      // The 3x4-step interleaving tree has ~35k leaves; a capped DFS
      // prefix keeps suite time bounded (randomized sweeps cover the
      // rest of the space).
      /*max_runs=*/6'000);
  EXPECT_GT(stats.runs, 1'000u);
}

TEST(Splitter, ReusableAfterReset) {
  Simulator s;
  Splitter splitter;
  std::vector<SplitterVerdict> verdicts;
  s.add_process([&](SimContext& ctx) {
    for (int round = 0; round < 3; ++round) {
      const auto v = splitter.get(ctx);
      verdicts.push_back(v);
      if (v == SplitterVerdict::kStop) splitter.reset(ctx);
    }
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  ASSERT_EQ(verdicts.size(), 3u);
  for (auto v : verdicts) EXPECT_EQ(v, SplitterVerdict::kStop);
}

// ---------------------------------------------------------------------------
// Shared driver: n processes each run cons.run(old=⊥, own value) and we
// collect the results.

template <class Cons>
struct RunOutcome {
  std::vector<std::optional<ConsensusResult>> results;
  Simulator sim;

  explicit RunOutcome(int n) : results(n) {}
};

// Validates abortable-consensus safety: all committed values equal, and
// every committed value was somebody's proposal (or inherited value).
template <class Cons>
void check_agreement_and_validity(
    const std::vector<std::optional<ConsensusResult>>& results,
    const std::vector<std::int64_t>& proposals) {
  std::set<std::int64_t> committed;
  for (const auto& r : results) {
    if (r && r->committed()) committed.insert(r->value);
  }
  EXPECT_LE(committed.size(), 1u) << "two different values committed";
  for (std::int64_t v : committed) {
    EXPECT_NE(v, kBottom);
    EXPECT_TRUE(std::find(proposals.begin(), proposals.end(), v) !=
                proposals.end())
        << "committed value " << v << " was never proposed";
  }
}

template <class Cons, class MakeSched>
void consensus_safety_sweep(int n, MakeSched make_sched, int sweeps) {
  for (int iter = 0; iter < sweeps; ++iter) {
    Simulator s;
    Cons cons = [&] {
      if constexpr (std::is_constructible_v<Cons, int>) {
        return Cons(n);
      } else {
        return Cons();
      }
    }();
    std::vector<std::optional<ConsensusResult>> results(n);
    std::vector<std::int64_t> proposals(n);
    for (int p = 0; p < n; ++p) {
      proposals[p] = 100 + p;
      s.add_process([&, p](SimContext& ctx) {
        results[p] = cons.run(ctx, kBottom, proposals[p]);
      });
    }
    auto sched = make_sched(iter);
    s.run(*sched);
    check_agreement_and_validity<Cons>(results, proposals);
  }
}

// gtest needs copyable fixtures; wrap non-movable consensus objects.
template <class Cons>
auto make_random_sched_factory() {
  return [](int iter) {
    return std::make_unique<sim::RandomSchedule>(
        static_cast<std::uint64_t>(iter) * 7919 + 1);
  };
}

// ---------------------------------------------------------------------------
// SplitConsensus

TEST(SplitConsensus, SoloCommitsOwnValue) {
  Simulator s;
  SplitConsensus cons;
  std::optional<ConsensusResult> result;
  s.add_process(
      [&](SimContext& ctx) { result = cons.run(ctx, kBottom, 42); });
  sim::SequentialSchedule sched;
  s.run(sched);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  EXPECT_EQ(result->value, 42);
}

TEST(SplitConsensus, SequentialProcessesAgreeOnFirstValue) {
  // No interval contention: everyone must commit, and later processes
  // adopt the first decided value.
  Simulator s;
  SplitConsensus cons;
  constexpr int kN = 4;
  std::vector<std::optional<ConsensusResult>> results(kN);
  for (int p = 0; p < kN; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      results[p] = cons.run(ctx, kBottom, 100 + p);
    });
  }
  sim::SequentialSchedule sched;
  s.run(sched);
  for (int p = 0; p < kN; ++p) {
    ASSERT_TRUE(results[p].has_value());
    EXPECT_TRUE(results[p]->committed())
        << "contention-free progress violated for p" << p;
    EXPECT_EQ(results[p]->value, 100);
  }
}

TEST(SplitConsensus, SoloStepComplexityIsConstant) {
  // The fast path must not depend on n: measure solo steps at two
  // different process counts.
  auto solo_steps = [](int bystanders) {
    Simulator s;
    SplitConsensus cons;
    s.add_process([&](SimContext& ctx) { (void)cons.run(ctx, kBottom, 7); });
    for (int p = 0; p < bystanders; ++p) {
      s.add_process([](SimContext&) {});
    }
    sim::SequentialSchedule sched;
    s.run(sched);
    return s.counters(0).total();
  };
  const auto steps_small = solo_steps(1);
  const auto steps_large = solo_steps(16);
  EXPECT_EQ(steps_small, steps_large);
  EXPECT_LE(steps_large, 16u);  // constant, and a small constant
}

TEST(SplitConsensus, SafetyUnderRandomSchedules) {
  consensus_safety_sweep<SplitConsensus>(
      4, make_random_sched_factory<SplitConsensus>(), 200);
}

TEST(SplitConsensus, SafetyUnderRoundRobin) {
  consensus_safety_sweep<SplitConsensus>(3, [](int iter) {
    return std::make_unique<sim::RoundRobinSchedule>(
        static_cast<std::uint64_t>(iter % 3 + 1));
  }, 3);
}

TEST(SplitConsensus, ExhaustiveTwoProcessSafety) {
  auto results =
      std::make_shared<std::vector<std::optional<ConsensusResult>>>();
  auto stats = sim::explore_all_schedules(
      [&]() {
        auto s = std::make_unique<Simulator>();
        auto cons = std::make_shared<SplitConsensus>();
        results->assign(2, std::nullopt);
        for (int p = 0; p < 2; ++p) {
          s->add_process([cons, results, p](SimContext& ctx) {
            (*results)[p] = cons->run(ctx, kBottom, 100 + p);
          });
        }
        return s;
      },
      [&](Simulator&) {
        check_agreement_and_validity<SplitConsensus>(*results, {100, 101});
      },
      // Bounded DFS prefix of the two-process interleaving tree; the
      // randomized sweeps cover the remainder.
      /*max_runs=*/6'000);
  EXPECT_GT(stats.runs, 1'000u);
}

TEST(SplitConsensus, InheritedValueWins) {
  // A process arriving with an inherited (init) value must impose it
  // when running solo: the init round proposes `old` first.
  Simulator s;
  SplitConsensus cons;
  std::optional<ConsensusResult> result;
  s.add_process([&](SimContext& ctx) { result = cons.run(ctx, 77, 42); });
  sim::SequentialSchedule sched;
  s.run(sched);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  EXPECT_EQ(result->value, 77);
}

// ---------------------------------------------------------------------------
// AbortableBakery

TEST(AbortableBakery, SoloCommitsOwnValue) {
  Simulator s;
  AbortableBakery cons(1);
  std::optional<ConsensusResult> result;
  s.add_process(
      [&](SimContext& ctx) { result = cons.run(ctx, kBottom, 42); });
  sim::SequentialSchedule sched;
  s.run(sched);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  EXPECT_EQ(result->value, 42);
}

TEST(AbortableBakery, SequentialProcessesAgree) {
  Simulator s;
  constexpr int kN = 4;
  AbortableBakery cons(kN);
  std::vector<std::optional<ConsensusResult>> results(kN);
  for (int p = 0; p < kN; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      results[p] = cons.run(ctx, kBottom, 100 + p);
    });
  }
  sim::SequentialSchedule sched;
  s.run(sched);
  for (int p = 0; p < kN; ++p) {
    ASSERT_TRUE(results[p].has_value());
    EXPECT_TRUE(results[p]->committed());
    EXPECT_EQ(results[p]->value, 100);
  }
}

TEST(AbortableBakery, SoloStepComplexityIsLinearInN) {
  auto solo_steps = [](int n) {
    Simulator s;
    AbortableBakery cons(n);
    s.add_process([&](SimContext& ctx) { (void)cons.run(ctx, kBottom, 7); });
    for (int p = 1; p < n; ++p) s.add_process([](SimContext&) {});
    sim::SequentialSchedule sched;
    s.run(sched);
    return s.counters(0).total();
  };
  const auto steps4 = solo_steps(4);
  const auto steps16 = solo_steps(16);
  // Linear growth: collects dominate. Expect roughly 4x more steps at
  // 4x the processes, and strictly more in any case.
  EXPECT_GT(steps16, steps4);
  EXPECT_GE(steps16, 3 * steps4 / 2);
  EXPECT_LE(steps16, 16 * 8u + 32);  // sanity upper bound: O(n) collects
}

TEST(AbortableBakery, SafetyUnderRandomSchedules) {
  consensus_safety_sweep<AbortableBakery>(
      4, make_random_sched_factory<AbortableBakery>(), 200);
}

TEST(AbortableBakery, ExhaustiveTwoProcessSafety) {
  auto results =
      std::make_shared<std::vector<std::optional<ConsensusResult>>>();
  auto stats = sim::explore_all_schedules(
      [&]() {
        auto s = std::make_unique<Simulator>();
        auto cons = std::make_shared<AbortableBakery>(2);
        results->assign(2, std::nullopt);
        for (int p = 0; p < 2; ++p) {
          s->add_process([cons, results, p](SimContext& ctx) {
            (*results)[p] = cons->run(ctx, kBottom, 100 + p);
          });
        }
        return s;
      },
      [&](Simulator&) {
        check_agreement_and_validity<AbortableBakery>(*results, {100, 101});
      },
      /*max_runs=*/4'000);
  // The bakery's tree is larger; cap the exploration but require real
  // coverage.
  EXPECT_GT(stats.runs, 1'000u);
}

TEST(AbortableBakery, AbortsOnlyUnderStepContention) {
  // Under a stickiness-1.0 (sequential) schedule nobody aborts; under
  // heavy interleaving aborts may appear but never disagreement.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    AbortableBakery cons(kN);
    std::vector<std::optional<ConsensusResult>> results(kN);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        ctx.begin_op();
        results[p] = cons.run(ctx, kBottom, 100 + p);
        ctx.end_op(results[p]->committed() ? 1 : 0);
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    for (const auto& op : s.ops()) {
      if (!s.op_has_step_contention(op)) {
        // Progress: no step contention => committed.
        EXPECT_EQ(op.output, 1)
            << "aborted without step contention (seed " << seed << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CasConsensus

TEST(CasConsensus, AlwaysCommitsUnderAnySchedule) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Simulator s;
    CasConsensus cons;
    constexpr int kN = 5;
    std::vector<std::optional<ConsensusResult>> results(kN);
    std::vector<std::int64_t> proposals(kN);
    for (int p = 0; p < kN; ++p) {
      proposals[p] = 200 + p;
      s.add_process([&, p](SimContext& ctx) {
        results[p] = cons.run(ctx, kBottom, proposals[p]);
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    std::set<std::int64_t> committed;
    for (const auto& r : results) {
      ASSERT_TRUE(r.has_value());
      EXPECT_TRUE(r->committed());  // wait-free: no aborts, ever
      committed.insert(r->value);
    }
    EXPECT_EQ(committed.size(), 1u);
  }
}

TEST(CasConsensus, UsesExactlyOneRmwWhenUncontended) {
  Simulator s;
  CasConsensus cons;
  s.add_process([&](SimContext& ctx) { (void)cons.run(ctx, kBottom, 5); });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_EQ(s.counters(0).rmws, 1u);
}

TEST(CasConsensus, InheritedValueProposedFirst) {
  Simulator s;
  CasConsensus cons;
  std::optional<ConsensusResult> result;
  s.add_process([&](SimContext& ctx) { result = cons.run(ctx, 88, 5); });
  sim::SequentialSchedule sched;
  s.run(sched);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, 88);
}

// ---------------------------------------------------------------------------
// Crash tolerance: all three implementations must stay safe when
// processes crash mid-operation (the model allows n-1 crash faults).

template <class Cons>
void crash_safety_sweep(int n) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Simulator s;
    Cons cons = [&] {
      if constexpr (std::is_constructible_v<Cons, int>) {
        return Cons(n);
      } else {
        return Cons();
      }
    }();
    std::vector<std::optional<ConsensusResult>> results(n);
    std::vector<std::int64_t> proposals(n);
    for (int p = 0; p < n; ++p) {
      proposals[p] = 300 + p;
      s.add_process([&, p](SimContext& ctx) {
        results[p] = cons.run(ctx, kBottom, proposals[p]);
      });
    }
    sim::RandomSchedule inner(seed);
    sim::RandomCrashSchedule sched(inner, seed ^ 0xabcdef, 0.05, 1);
    s.run(sched);
    check_agreement_and_validity<Cons>(results, proposals);
  }
}

TEST(SplitConsensus, SafeUnderCrashes) {
  crash_safety_sweep<SplitConsensus>(4);
}
TEST(AbortableBakery, SafeUnderCrashes) {
  crash_safety_sweep<AbortableBakery>(4);
}
TEST(CasConsensus, SafeUnderCrashes) {
  crash_safety_sweep<CasConsensus>(4);
}

}  // namespace
}  // namespace scm
