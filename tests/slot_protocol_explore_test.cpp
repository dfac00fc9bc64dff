// Exhaustive model checking of the owner-tagged publication-slot
// protocol (core/slot_protocol.hpp) on the shipping cross-process
// executor, ShmCombining<TicketModule, 2> — the same class shm_test's
// forked clients and the ipc-counter benchmark run, instantiated under
// SimContext.
//
// Every test drives it through sim::explore over ALL interleavings of
// its processes (stats.exhausted is asserted, so a silently truncated
// search fails the suite) and checks:
//
//  * linearizability: the fetch&inc history linearizes against
//    CounterSpec in every interleaving ({2 procs x 2 slots} and
//    {3 procs x 2 slots}, the latter forcing slot exhaustion), with the
//    exact tree sizes pinned;
//  * residue: after every run the slot array is all-kFree and the
//    combiner gate is released;
//  * crash-reclaim, with deaths as KILL POINTS inside the shipping
//    invoke(): the explorer's crash predicate kills a victim process at
//    one of its own counted steps (or while it is parked waiting), and
//    a surviving server's drain + reclaim_dead must leave no residue:
//      - killed after its claim (kClaimed): the record is swept and
//        nothing executed — the invariant the seeded mutation
//        (SCM_MUTATE_SLOT_PROTOCOL drops the ownership stamp in
//        SlotArray::try_claim) breaks; the slot_mutation_catch CTest
//        entry recompiles this file with the mutation and expects
//        CrashReclaim.ClaimedRecordOfDeadOwnerIsSwept to fail;
//      - killed parked and unserved (kPending): the op still executes
//        exactly once, and the dead-owned kDone record is swept;
//      - killed after being served (kDone): the record is swept;
//      - killed right after winning the combiner gate: a survivor's
//        reclaim steals the gate and the object serves ops again.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/slot_protocol.hpp"
#include "shm/shm_combining.hpp"
#include "sim/explorer.hpp"
#include "sim/simulator.hpp"
#include "slot_explore.hpp"

#if SCM_HAS_POSIX_SHM

namespace scm {
namespace {

using sim::explore_all_schedules;
using sim::SimContext;
using sim::Simulator;
using slot_explore::inc_req;
using slot_explore::TicketModule;

using Shm = ShmCombining<TicketModule, 2>;

// ---------------------------------------------------------------------------
// Exhaustive linearizability + residue, no crashes

// The trees are smaller than a naive step count suggests: failed gate
// pre-tests and the publisher's final kFree store are uncounted, so
// only schedules that differ in a COUNTED access are distinct leaves
// (the soundness argument lives in core/slot_protocol.hpp's header).
// An exact count pins the protocol's scheduling points: a change that
// adds or removes one moves it.
TEST(SlotProtocolExplore, TwoProcsTwoSlotsLinearizableNoResidue) {
  const auto stats = slot_explore::explore_fetch_inc<Shm>(2);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 20u);
}

// Three processes through two slots: some interleavings exhaust the
// slot array, exercising the claim-wait path and recycle-then-claim.
TEST(SlotProtocolExplore, ThreeProcsTwoSlotsLinearizableNoResidue) {
  const auto stats = slot_explore::explore_fetch_inc<Shm>(3);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 147'246u);
}

// ---------------------------------------------------------------------------
// Crash-reclaim over kill points in ShmCombining::invoke
//
// Process 0 is the victim, process 1 the surviving server. The victim's
// owner id under a simulated context is ctx.id() + 1.

constexpr ProcessId kVictim = 0;
constexpr std::uint32_t kVictimOwner = 1;

struct CrashFixture {
  Shm shm;
  // Set as the victim's body is left, by return or by the Crashed
  // unwind: the survivor's view of waitpid() reporting the exit.
  std::atomic<bool> victim_gone{false};
};

struct Departure {
  std::atomic<bool>& gone;
  ~Departure() { gone.store(true, std::memory_order_release); }
};

// Liveness as the survivor sees it: only the victim can die, and the
// survivor asks only once the victim is gone — so the sweep is honest.
bool alive(std::uint32_t owner) { return owner != kVictimOwner; }

// The victim: one fetch&inc, bracketed as an op so a crash inside it
// shows up as an incomplete record.
void victim_body(CrashFixture& fx, SimContext& ctx, bool may_combine) {
  const Departure departure{fx.victim_gone};
  ctx.begin_op(1);
  const ModuleResult r =
      fx.shm.invoke(ctx, inc_req(1, ctx.id()), std::nullopt, may_combine);
  ctx.end_op(r.response);
}

// Where, in its own execution, the victim dies: at its first grant (or
// blocked wait) after `steps` counted shared-memory accesses. For a
// parked victim `served` further splits "its record is still kPending"
// from "already kDone".
enum class Served { kAny, kNo, kYes };

struct KillPoint {
  std::uint64_t steps;
  Served served;
  std::uint64_t executed;  // victim ops the object executed
  std::size_t swept;       // records reclaim_dead freed
};

// A may_combine = false victim (a publish-only client) against a
// dedicated server that drains while the victim lives, then runs
// drain + reclaim_dead once it is gone.
void explore_publisher_kill(const KillPoint& kp) {
  std::shared_ptr<CrashFixture> fx;
  const sim::CrashPredicate kill = [&](ProcessId pid, const Simulator& sim) {
    if (pid != kVictim || sim.counters(kVictim).total() != kp.steps) {
      return false;
    }
    return kp.served == Served::kAny ||
           (fx->shm.pending() == 0) == (kp.served == Served::kYes);
  };
  auto stats = explore_all_schedules(
      [&] {
        fx = std::make_shared<CrashFixture>();
        auto sim = std::make_unique<Simulator>();
        sim->add_process([fx](SimContext& ctx) {
          victim_body(*fx, ctx, /*may_combine=*/false);
        });
        sim->add_process([fx](SimContext& ctx) {
          for (;;) {
            ctx.await([fx] {
              return fx->victim_gone.load(std::memory_order_acquire) ||
                     fx->shm.pending() != 0;
            });
            if (fx->victim_gone.load(std::memory_order_acquire)) break;
            fx->shm.drain(ctx);
          }
          fx->shm.drain(ctx);
          const std::size_t swept = fx->shm.reclaim_dead(ctx, alive);
          ctx.begin_op();
          ctx.end_op(static_cast<std::int64_t>(swept));
        });
        return sim;
      },
      [&](Simulator& sim) {
        ASSERT_TRUE(sim.crashed(kVictim));
        // No residue, and the op executed exactly once — or not at all
        // if it was never published.
        ASSERT_EQ(fx->shm.occupied(), 0u) << "dead owner's record leaked";
        ASSERT_EQ(fx->shm.gate_holder(), 0u);
        ASSERT_EQ(fx->shm.object().count(), kp.executed);
        const auto& survivor = sim.ops().back();
        ASSERT_EQ(survivor.pid, 1);
        ASSERT_TRUE(survivor.complete);
        ASSERT_EQ(survivor.output, static_cast<std::int64_t>(kp.swept));
        ASSERT_FALSE(sim.ops().front().complete);
      },
      kill);
  EXPECT_TRUE(stats.exhausted);
}

// Killed after the claim CAS, before publishing (a kill AT the claim's
// own step lands after its CAS too, leaving the same record): a
// kClaimed record whose owner is dead is pure wreckage (the request
// was never published), so it must be swept and nothing may execute.
// THIS is the invariant the seeded mutation breaks: with the ownership
// stamp dropped, the record reads as owner 0 — indistinguishable from
// an in-flight claim — and the sweep must skip it forever.
TEST(CrashReclaim, ClaimedRecordOfDeadOwnerIsSwept) {
  explore_publisher_kill({1, Served::kAny, 0, 1});
}

// Killed parked in the wait for its result, never served: the kPending
// publication is complete, so the op MUST execute exactly once — a
// reclaim that discarded it would lose a published operation; a
// combiner that ran it twice would double-apply. The dead-owned kDone
// record it resurfaces as is then swept.
TEST(CrashReclaim, PendingOpOfDeadOwnerExecutesExactlyOnce) {
  explore_publisher_kill({2, Served::kNo, 1, 1});
}

// Killed after being served, before collecting: the kDone record has no
// collector left and must be swept.
TEST(CrashReclaim, DoneRecordOfDeadOwnerIsSwept) {
  explore_publisher_kill({2, Served::kYes, 1, 1});
}

// Killed right after winning the combiner gate (the gate CAS is its
// first counted step; the kill lands on the next, the module's RMW):
// a dead combiner wedges every future election. The survivor's
// reclaim must steal the gate from the corpse, after which the object
// serves operations again.
TEST(CrashReclaim, GateIsStolenFromDeadHolder) {
  std::shared_ptr<CrashFixture> fx;
  const sim::CrashPredicate kill = [](ProcessId pid, const Simulator& sim) {
    return pid == kVictim && sim.counters(kVictim).total() == 1;
  };
  auto stats = explore_all_schedules(
      [&] {
        fx = std::make_shared<CrashFixture>();
        auto sim = std::make_unique<Simulator>();
        sim->add_process([fx](SimContext& ctx) {
          victim_body(*fx, ctx, /*may_combine=*/true);
        });
        sim->add_process([fx](SimContext& ctx) {
          ctx.await([fx] {
            return fx->victim_gone.load(std::memory_order_acquire);
          });
          const std::uint32_t wedged = fx->shm.gate_holder();
          (void)fx->shm.reclaim_dead(ctx, alive);
          ctx.begin_op(static_cast<std::int64_t>(wedged));
          const ModuleResult r = fx->shm.invoke(ctx, inc_req(2, ctx.id()));
          ctx.end_op(r.response);
        });
        return sim;
      },
      [&](Simulator& sim) {
        ASSERT_TRUE(sim.crashed(kVictim));
        ASSERT_EQ(sim.ops().size(), 2u);
        ASSERT_FALSE(sim.ops()[0].complete);
        const auto& survivor = sim.ops()[1];
        ASSERT_EQ(survivor.tag, kVictimOwner) << "victim never held the gate";
        ASSERT_TRUE(survivor.complete) << "object still wedged";
        ASSERT_EQ(survivor.output, 0);  // the victim's op never executed
        ASSERT_EQ(fx->shm.object().count(), 1u);
        ASSERT_EQ(fx->shm.occupied(), 0u);
        ASSERT_EQ(fx->shm.gate_holder(), 0u);
      },
      kill);
  EXPECT_TRUE(stats.exhausted);
}

// The mutation flips protocol behavior, not just test expectations:
// guard that a build WITHOUT the flag really runs the honest protocol
// (so slot_mutation_catch's WILL_FAIL can only be satisfied by the
// mutation itself being caught).
TEST(SlotProtocolExplore, MutationFlagMatchesBuild) {
#if defined(SCM_MUTATE_SLOT_PROTOCOL)
  EXPECT_TRUE(kMutateDropOwnerStamp);
#else
  EXPECT_FALSE(kMutateDropOwnerStamp);
#endif
}

}  // namespace
}  // namespace scm

#else  // !SCM_HAS_POSIX_SHM

TEST(SlotProtocolExplore, SkippedOnThisPlatform) {
  GTEST_SKIP() << "POSIX shared memory is unavailable on this target";
}

#endif
