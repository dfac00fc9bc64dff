// Tests for the snapshot log, the composable universal construction
// (Abstract), and the three-stage chain of Proposition 1 — with every
// recorded Abstract trace run through the Definition-1 checker and
// every committed execution checked for linearizable counter behaviour.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "consensus/abortable_bakery.hpp"
#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "core/abstract_checker.hpp"
#include "core/trace.hpp"
#include "history/specs.hpp"
#include "runtime/platform.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "universal/composable_universal.hpp"
#include "universal/snapshot.hpp"
#include "universal/static_chain.hpp"

namespace scm {
namespace {

using sim::SimContext;
using sim::Simulator;

Request req(std::uint64_t id, ProcessId p, std::int64_t op = 0,
            std::int64_t arg = 0) {
  return Request{id, p, op, arg};
}

// ---------------------------------------------------------------------------
// SnapshotLog

TEST(SnapshotLog, AppendScanRoundTrip) {
  Simulator s;
  SnapshotLog<std::int64_t, 8> log(2);
  s.add_process([&](SimContext& ctx) {
    log.append(ctx, 10);
    log.append(ctx, 11);
  });
  s.add_process([&](SimContext& ctx) { log.append(ctx, 20); });
  sim::SequentialSchedule sched;
  s.run(sched);

  Simulator s2;
  std::vector<std::vector<std::int64_t>> view;
  // scan from a fresh simulated process over the same (plain) storage
  // is not possible across simulators; scan within the same run:
  Simulator s3;
  SnapshotLog<std::int64_t, 8> log3(2);
  s3.add_process([&](SimContext& ctx) {
    log3.append(ctx, 1);
    log3.append(ctx, 2);
    view = log3.scan(ctx);
  });
  s3.add_process([&](SimContext& ctx) { log3.append(ctx, 9); });
  sim::SequentialSchedule sched3;
  s3.run(sched3);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], (std::vector<std::int64_t>{1, 2}));
  EXPECT_TRUE(view[1].empty());  // p1 had not run yet under sequential
}

TEST(SnapshotLog, ScanIsConsistentCutUnderInterleaving) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Simulator s;
    SnapshotLog<std::int64_t, 16> log(3);
    std::vector<std::vector<std::int64_t>> view;
    s.add_process([&](SimContext& ctx) {
      for (int i = 0; i < 8; ++i) log.append(ctx, i);
    });
    s.add_process([&](SimContext& ctx) {
      for (int i = 100; i < 108; ++i) log.append(ctx, i);
    });
    s.add_process([&](SimContext& ctx) { view = log.scan(ctx); });
    sim::RandomSchedule sched(seed);
    s.run(sched);
    // Consistency: each component is a prefix of the writer's sequence.
    ASSERT_EQ(view.size(), 3u);
    for (std::size_t i = 0; i < view[0].size(); ++i) {
      EXPECT_EQ(view[0][i], static_cast<std::int64_t>(i));
    }
    for (std::size_t i = 0; i < view[1].size(); ++i) {
      EXPECT_EQ(view[1][i], static_cast<std::int64_t>(100 + i));
    }
  }
}

TEST(SnapshotLog, ReadSlotReturnsWrittenValue) {
  Simulator s;
  SnapshotLog<std::int64_t, 4> log(2);
  std::int64_t got = -1;
  s.add_process([&](SimContext& ctx) {
    const auto idx = log.append(ctx, 77);
    got = log.read_slot(ctx, 0, idx);
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_EQ(got, 77);
}

// ---------------------------------------------------------------------------
// ComposableUniversal: single stage

using SplitStage = ComposableUniversal<CounterSpec, SplitConsensus, 32>;
using BakeryStage = ComposableUniversal<CounterSpec, AbortableBakery, 32>;
using CasStage = ComposableUniversal<CounterSpec, CasConsensus, 32>;

TEST(ComposableUniversal, SoloCommitsWithRegistersOnly) {
  Simulator s;
  SplitStage stage(2, 32, "split");
  AbstractResult result;
  s.add_process([&](SimContext& ctx) {
    result = stage.invoke(ctx, req(1, 0, CounterSpec::kFetchInc), History{});
  });
  s.add_process([](SimContext&) {});
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_TRUE(result.committed());
  EXPECT_EQ(result.response, 0);
  ASSERT_EQ(result.history.size(), 1u);
  // The committed fast path used no RMW except the committed-count
  // counter (documented deviation: the paper's atomic counter C).
  EXPECT_LE(s.counters(0).rmws, 1u);
}

TEST(ComposableUniversal, CasStageEveryOperationUsesRmw) {
  // Proposition 2: a wait-free universal operation pays consensus, so
  // every CAS-stage op runs its cell's CAS on top of the committed-cell
  // counter C that even the registers-only stage pays.
  constexpr int kOps = 4;
  Simulator s;
  CasStage stage(1, 32, "cas");
  s.add_process([&](SimContext& ctx) {
    for (int i = 0; i < kOps; ++i) {
      const AbstractResult r = stage.invoke(
          ctx, req(static_cast<std::uint64_t>(i) + 1, 0, CounterSpec::kFetchInc),
          History{});
      ASSERT_TRUE(r.committed());
    }
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_GE(s.counters(0).rmws, 2u * kOps);
}

TEST(ComposableUniversal, SequentialRequestsBuildPrefixHistories) {
  Simulator s;
  SplitStage stage(3, 32, "split");
  std::vector<AbstractResult> results(3);
  for (int p = 0; p < 3; ++p) {
    s.add_process([&, p](SimContext& ctx) {
      results[p] = stage.invoke(
          ctx, req(static_cast<std::uint64_t>(p) + 1, p, CounterSpec::kFetchInc),
          History{});
    });
  }
  sim::SequentialSchedule sched;
  s.run(sched);
  for (const auto& r : results) EXPECT_TRUE(r.committed());
  // Commit histories form a prefix chain (Definition 1, Commit Order).
  std::vector<History> hs;
  for (const auto& r : results) hs.push_back(r.history);
  std::sort(hs.begin(), hs.end(),
            [](const History& a, const History& b) { return a.size() < b.size(); });
  for (std::size_t i = 1; i < hs.size(); ++i) {
    EXPECT_TRUE(hs[i - 1].prefix_of(hs[i]));
  }
}

TEST(ComposableUniversal, AbortedTracesSatisfyAbstractProperties) {
  // Drive the split-consensus stage under contention until it aborts;
  // record the Abstract trace and validate Definition 1 on it.
  int aborts_seen = 0;
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    SplitStage stage(kN, 32, "split");
    TraceRecorder rec;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const Request m =
            req(static_cast<std::uint64_t>(p) + 1, p, CounterSpec::kFetchInc);
        rec.invoke(p, m);
        const AbstractResult r = stage.invoke(ctx, m, History{});
        if (r.committed()) {
          rec.commit(p, m, r.response, r.history);
        } else {
          rec.abort(p, m, 0, r.history);
        }
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    const Trace t = rec.trace();
    const auto verdict = check_abstract_trace(t);
    ASSERT_TRUE(verdict) << "seed " << seed << ": " << verdict.error;
    for (const auto& e : t.events()) {
      if (e.kind == EventKind::kAbort) ++aborts_seen;
    }
  }
  EXPECT_GT(aborts_seen, 0) << "contention never triggered an abort";
}

TEST(ComposableUniversal, BakeryStageSatisfiesAbstractProperties) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Simulator s;
    constexpr int kN = 3;
    BakeryStage stage(kN, 32, "bakery");
    TraceRecorder rec;
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const Request m =
            req(static_cast<std::uint64_t>(p) + 1, p, CounterSpec::kFetchInc);
        rec.invoke(p, m);
        const AbstractResult r = stage.invoke(ctx, m, History{});
        if (r.committed()) {
          rec.commit(p, m, r.response, r.history);
        } else {
          rec.abort(p, m, 0, r.history);
        }
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    const auto verdict = check_abstract_trace(rec.trace());
    ASSERT_TRUE(verdict) << "seed " << seed << ": " << verdict.error;
  }
}

TEST(ComposableUniversal, InitializationReplaysInheritedHistory) {
  Simulator s;
  CasStage stage(2, 32, "cas");
  const Request a = req(10, 1, CounterSpec::kFetchInc);
  const Request b = req(11, 1, CounterSpec::kFetchInc);
  History inherited{a, b};
  AbstractResult result;
  s.add_process([&](SimContext& ctx) {
    result = stage.invoke(ctx, req(1, 0, CounterSpec::kFetchInc), inherited);
  });
  s.add_process([](SimContext&) {});
  sim::SequentialSchedule sched;
  s.run(sched);
  ASSERT_TRUE(result.committed());
  // History = inherited ++ own request; response reflects two prior incs.
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.history[0].id, 10u);
  EXPECT_EQ(result.history[1].id, 11u);
  EXPECT_EQ(result.history[2].id, 1u);
  EXPECT_EQ(result.response, 2);
}

// ---------------------------------------------------------------------------
// StaticAbstractChain: the Proposition-1 composition

// The three Proposition-1 stages and the chain over them, owned
// together (the chain holds its stages by reference).
template <class Spec>
struct PropositionOneChain {
  template <class Cons>
  using Stage = ComposableUniversal<Spec, Cons, 32>;

  explicit PropositionOneChain(int n)
      : split(n, 32, "contention-free"),
        bakery(n, 32, "obstruction-free"),
        cas(n, 32, "wait-free"),
        chain(n, split, bakery, cas) {}

  Stage<SplitConsensus> split;
  Stage<AbortableBakery> bakery;
  Stage<CasConsensus> cas;
  StaticAbstractChain<Stage<SplitConsensus>, Stage<AbortableBakery>,
                      Stage<CasConsensus>>
      chain;
};
using CounterChain = PropositionOneChain<CounterSpec>;

// The chain speaks the module surface; its stages need no vtable.
static_assert(Composable<decltype(CounterChain::chain), SimContext>);
static_assert(!std::is_polymorphic_v<SplitStage>);
static_assert(!std::is_polymorphic_v<CasStage>);

// One consensus number per object, folded at compile time. A stage's
// is the max of its cells' and its committed-cell counter's, which is
// fetch&add (2): split consensus alone uses only registers (1).
static_assert(SplitConsensus::kConsensusNumber == kConsensusNumberRegister);
static_assert(SplitStage::kConsensusNumber == kConsensusNumberFetchAdd);
static_assert(CasStage::kConsensusNumber == kConsensusNumberCas);
// The chain reports its strongest stage.
static_assert(decltype(CounterChain::chain)::kConsensusNumber ==
              kConsensusNumberCas);

TEST(StaticChain, SoloUsesFirstStageOnly) {
  Simulator s;
  CounterChain c(2);
  ChainPerformed result;
  s.add_process([&](SimContext& ctx) {
    result = c.chain.perform(ctx, req(1, 0, CounterSpec::kFetchInc));
  });
  s.add_process([](SimContext&) {});
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_EQ(result.response, 0);
  EXPECT_EQ(result.stage, 0u);  // registers-only stage served it
}

TEST(StaticChain, NeverFailsAndStaysLinearizableUnderContention) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Simulator s;
    constexpr int kN = 4;
    constexpr int kOpsPer = 2;
    CounterChain c(kN);
    std::vector<std::vector<Response>> responses(kN);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        for (int i = 0; i < kOpsPer; ++i) {
          const auto id = static_cast<std::uint64_t>(p) * 100 +
                          static_cast<std::uint64_t>(i) + 1;
          responses[p].push_back(
              c.chain.perform(ctx, req(id, p, CounterSpec::kFetchInc))
                  .response);
        }
      });
    }
    sim::RandomSchedule sched(seed);
    s.run(sched);
    std::set<Response> all;
    for (const auto& rs : responses) {
      ASSERT_EQ(rs.size(), kOpsPer);
      for (Response r : rs) all.insert(r);
    }
    EXPECT_EQ(all.size(), static_cast<std::size_t>(kN * kOpsPer))
        << "duplicate fetch&inc response (seed " << seed << ")";
    EXPECT_EQ(*all.begin(), 0);
    EXPECT_EQ(*all.rbegin(), kN * kOpsPer - 1);
  }
}

TEST(StaticChain, ContentionPushesProcessesToLaterStages) {
  int later_stage_commits = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Simulator s;
    constexpr int kN = 4;
    CounterChain c(kN);
    std::vector<std::size_t> stages_used(kN, 0);
    for (int p = 0; p < kN; ++p) {
      s.add_process([&, p](SimContext& ctx) {
        const auto r = c.chain.perform(
            ctx, req(static_cast<std::uint64_t>(p) + 1, p,
                     CounterSpec::kFetchInc));
        stages_used[p] = r.stage;
      });
    }
    sim::RoundRobinSchedule sched(1);
    s.run(sched);
    for (auto st : stages_used) {
      if (st > 0) ++later_stage_commits;
    }
  }
  EXPECT_GT(later_stage_commits, 0)
      << "round-robin contention never escalated past stage 0";
}

TEST(StaticChain, WorksForQueueSpec) {
  Simulator s;
  constexpr int kN = 2;
  ComposableUniversal<QueueSpec, SplitConsensus, 32> split(kN, 32, "split");
  ComposableUniversal<QueueSpec, CasConsensus, 32> cas(kN, 32, "cas");
  StaticAbstractChain chain(kN, split, cas);

  std::vector<Response> deqs;
  s.add_process([&](SimContext& ctx) {
    (void)chain.perform(ctx, req(1, 0, QueueSpec::kEnqueue, 10));
    (void)chain.perform(ctx, req(2, 0, QueueSpec::kEnqueue, 20));
  });
  s.add_process([&](SimContext& ctx) {
    deqs.push_back(chain.perform(ctx, req(3, 1, QueueSpec::kDequeue)).response);
    deqs.push_back(chain.perform(ctx, req(4, 1, QueueSpec::kDequeue)).response);
    deqs.push_back(chain.perform(ctx, req(5, 1, QueueSpec::kDequeue)).response);
  });
  sim::SequentialSchedule sched;
  s.run(sched);
  EXPECT_EQ(deqs, (std::vector<Response>{10, 20, QueueSpec::kEmpty}));
}

// A non-virtual stage stub that aborts until the chain reaches the
// final stage — the minimal driver for deep-chain accounting.
template <bool kCommits>
class AbortingStub {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  AbstractResult invoke(SimContext& /*ctx*/, const Request& m,
                        const History& init) {
    AbstractResult r;
    r.history = init;
    r.history.append_if_absent(m);
    if (kCommits) {
      r.outcome = Outcome::kCommit;
      r.response = static_cast<Response>(r.history.size());
    } else {
      r.outcome = Outcome::kAbort;
    }
    return r;
  }

  [[nodiscard]] const char* name() const {
    return kCommits ? "commit-stub" : "abort-stub";
  }
};

// A chain accepts exactly the contexts every one of its stages accepts.
static_assert(Composable<StaticAbstractChain<AbortingStub<true>>, SimContext>);
static_assert(
    !Composable<StaticAbstractChain<AbortingStub<true>>, NativeContext>);

// Commit tallies are sized from the chain's depth, so a process that
// falls through to stage 8+ is counted in bounds.
TEST(StaticChain, DeepChainAccountsCommitsBeyondEightStages) {
  constexpr std::size_t kStages = 10;
  AbortingStub<false> a;
  AbortingStub<true> last;
  StaticAbstractChain chain(2, a, a, a, a, a, a, a, a, a, last);
  static_assert(decltype(chain)::kDepth == kStages);

  Simulator s;
  ChainPerformed r0, r1;
  s.add_process([&](SimContext& ctx) { r0 = chain.perform(ctx, req(1, 0)); });
  s.add_process([&](SimContext& ctx) { r1 = chain.perform(ctx, req(2, 1)); });
  sim::SequentialSchedule sched;
  s.run(sched);

  // Both processes fell through all nine aborting stages and committed
  // on the tenth; the tally for stage 9 holds exactly that commit.
  EXPECT_EQ(r0.stage, kStages - 1);
  EXPECT_EQ(r1.stage, kStages - 1);
  for (std::size_t st = 0; st + 1 < kStages; ++st) {
    EXPECT_EQ(chain.commits_by(0, st), 0u) << "stage " << st;
    EXPECT_EQ(chain.commits_by(1, st), 0u) << "stage " << st;
  }
  EXPECT_EQ(chain.commits_by(0, kStages - 1), 1u);
  EXPECT_EQ(chain.commits_by(1, kStages - 1), 1u);
}

// ---------------------------------------------------------------------------
// Entry-point checks: per-process state is indexed by the context id,
// so an id outside [0, num_processes) must fail loudly instead of
// writing past the allocation.

TEST(StaticChainDeathTest, RejectsOutOfRangeProcessId) {
  SplitStage split(2, 8, "split");
  CasStage cas(2, 8, "cas");
  StaticAbstractChain chain(2, split, cas);
  NativeContext ctx(2);
  EXPECT_DEATH((void)chain.perform(ctx, req(1, 2, CounterSpec::kFetchInc)),
               "process id out of range");
}

TEST(StaticChainDeathTest, CommitsByRejectsOutOfRangeProcessId) {
  SplitStage split(2, 8, "split");
  CasStage cas(2, 8, "cas");
  StaticAbstractChain chain(2, split, cas);
  EXPECT_DEATH((void)chain.commits_by(2, 0), "process id out of range");
  EXPECT_DEATH((void)chain.commits_by(-1, 0), "process id out of range");
}

TEST(StaticChainDeathTest, InvokeRejectsAnExternalInit) {
  SplitStage split(1, 8, "split");
  CasStage cas(1, 8, "cas");
  StaticAbstractChain chain(1, split, cas);
  NativeContext ctx(0);
  EXPECT_DEATH((void)chain.invoke(ctx, req(1, 0, CounterSpec::kFetchInc),
                                  SwitchValue{1}),
               "external init");
}

TEST(ComposableUniversalDeathTest, RejectsOutOfRangeProcessId) {
  CasStage stage(2, 8, "cas");
  NativeContext ctx(2);
  EXPECT_DEATH(
      (void)stage.invoke(ctx, req(1, 2, CounterSpec::kFetchInc), History{}),
      "process id out of range");
}

}  // namespace
}  // namespace scm
