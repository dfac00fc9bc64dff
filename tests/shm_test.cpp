// Tests for the cross-process composition fabric (src/shm/):
//
//  * both executors run the one slot-protocol implementation
//    (core/slot_protocol.hpp): they alias its enum and payload, each
//    record is one cache line, the 32-bit {state:2, owner:30} word
//    format is pinned, and owner_of rejects an owner that does not fit;
//  * two mappings of one shared object, at different addresses, see
//    each other's writes (the test helper's contract);
//  * ShmCombining executes a threaded fetch&inc workload with exact
//    counts and unique tickets (the in-process half of the
//    equivalence claim), a publish-only client's inits and
//    commit/abort results cross one reused record intact, its RMW
//    budget is the gate plus the claim when published, and four
//    publish-only threads sharing two records (claim exhaustion) still
//    count exactly;
//  * one and three fork()ed client PROCESSES, each through its own
//    mapping of the segment at its own address, combine into the same
//    object — exact total, no residue;
//  * the crash-reclaim protocol: a publisher SIGKILLed while kPending
//    is executed (not dropped), then its kDone residue is swept by
//    reclaim_dead(), with the kPending exemption and the injectable
//    liveness probe both pinned;
//  * crash under load: one of three publish-only clients is SIGKILLed
//    mid-run while a server serves; the counter stays inside
//    sum(completed) <= counter <= sum(started), the survivors' counts
//    are exact, and drain + reclaim_dead leave no occupied slot;
//  * stall: a client whose server sleeps 100 ms before serving parks
//    on the segment's futex word (the park counter is segment-resident,
//    so the server reads it) and still counts exactly;
//  * a may_combine = true op's process SIGKILLed while it holds the
//    gate: reclaim_dead steals the gate from the dead pid, and the
//    object serves the next op.
//  * a may_combine = false op published while a direct op holds the
//    gate is served by that op's pass after its release, with no
//    serving loop anywhere.
//
// Every segment is a tests/shm_mapping.hpp SharedMapping, whose name is
// unlinked at creation, so no test leaves a /dev/shm entry behind.
//
// fork() under ThreadSanitizer is unreliable, so this suite stays
// unlabeled (not part of the TSan ctest subset); the in-process
// protocol is TSan-covered via combining_test/async_test, which drive
// the same slot state machine.
#include "shm/shm_arena.hpp"  // defines SCM_HAS_POSIX_SHM

#include <gtest/gtest.h>

#include "core/combining.hpp"
#include "core/slot_protocol.hpp"

#if SCM_HAS_POSIX_SHM

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "fixtures.hpp"
#include "history/specs.hpp"
#include "runtime/context.hpp"
#include "shm/shm_combining.hpp"
#include "shm/shm_counter.hpp"
#include "support/cacheline.hpp"
#include "shm_mapping.hpp"

namespace scm {
namespace {

using fixtures::InitEcho;
using TestCombining = ShmCombining<ShmCounter, 8>;

// ---------------------------------------------------------------------------
// Slot protocol: one definition, two executors.

// The extraction pin: both combining paths alias the SAME enum, so the
// state machines cannot drift apart again.
static_assert(
    std::is_same_v<Combining<ShmCounter, 8>::slot_state,
                   ShmCombining<ShmCounter, 8>::slot_state>,
    "in-process and cross-process combining must share one slot enum");
static_assert(std::is_same_v<TestCombining::slot_state, SlotState>);
// ... and one election gate: both executors' combiner elections are the
// same holder-word type.
static_assert(std::is_same_v<Combining<ShmCounter, 8>::gate_type,
                             ElectionGate> &&
                  std::is_same_v<TestCombining::gate_type, ElectionGate>,
              "both executors must share one gate type");
// ... and one record payload: the request and its result overlaid, so
// each executor's whole publication record is one cache line.
static_assert(
    std::is_same_v<Combining<ShmCounter, 8>::slot_payload,
                   ShmCombining<ShmCounter, 8>::slot_payload>,
    "in-process and cross-process combining must share one record payload");
static_assert(std::is_same_v<TestCombining::slot_payload, SlotPayload>);
static_assert(Combining<ShmCounter, 8>::kSlotBytes == 64 &&
                  ShmCombining<ShmCounter, 8>::kSlotBytes == 64,
              "each publication record must be one 64-byte cache line");

// The word format, revision 3: state in the low 2 bits, owner in the
// high 30. Owner 0 (Combining's stamp) leaves each word equal to its
// state, and a zero word is a free, unowned record.
TEST(SlotProtocol, OwnerPackedWordsRoundtrip) {
  constexpr std::uint32_t kMaxOwner = kSlotOwnerLimit - 1;
  static_assert(kMaxOwner == (1u << 30) - 1);
  for (const SlotState s : {SlotState::kFree, SlotState::kClaimed,
                            SlotState::kPending, SlotState::kDone}) {
    EXPECT_EQ(pack_slot(s, 0), static_cast<std::uint32_t>(s));
    EXPECT_EQ(slot_state_of(pack_slot(s, 0)), s);
    EXPECT_EQ(slot_owner_of(pack_slot(s, 0)), 0u);
    const std::uint32_t w = pack_slot(s, kMaxOwner);
    EXPECT_EQ(slot_state_of(w), s);
    EXPECT_EQ(slot_owner_of(w), kMaxOwner);
  }
  EXPECT_EQ(pack_slot(SlotState::kFree, 0), 0u);  // zero-init == free
}

// A native context marked awaitable: ShmCombining stamps ctx.id() + 1
// under it, so the owner range check is reachable without a real pid
// that large. reclaim_dead never waits, so nothing else changes.
struct OwnerProbeContext : NativeContext {
  static constexpr bool kCanAwait = true;
  using NativeContext::NativeContext;
};

TEST(SlotProtocol, OwnerOutsideTheWordIsRejected) {
  TestCombining comb;
  const auto never_alive = [](std::uint32_t) { return false; };
  // The largest owner that fits: its reclaim takes and frees the gate.
  OwnerProbeContext fits{static_cast<ProcessId>(kSlotOwnerLimit - 2)};
  EXPECT_EQ(comb.reclaim_dead(fits, never_alive), 0u);
  EXPECT_EQ(comb.gate_holder(), 0u);
  OwnerProbeContext too_big{static_cast<ProcessId>(kSlotOwnerLimit - 1)};
  EXPECT_DEATH((void)comb.reclaim_dead(too_big, never_alive),
               "owner id does not fit");
}

// ---------------------------------------------------------------------------
// The shared mapping every multi-process test below runs on.

// Two mappings of one object sit at different addresses, and a write
// through either is read through the other: the stand-in, inside one
// process, for two processes that each mapped the segment.
TEST(SharedMapping, WritesCrossMappings) {
  SharedMapping mapping(1 << 16);
  auto* a = static_cast<std::uint64_t*>(mapping.base());
  auto* b = static_cast<std::uint64_t*>(mapping.map_again());
  ASSERT_NE(a, b);
  a[1] = 0xfeedface;
  EXPECT_EQ(b[1], 0xfeedfaceu);
  b[2] = 0xdecafbad;
  EXPECT_EQ(a[2], 0xdecafbadu);
  ::munmap(b, 1 << 16);
}

// ---------------------------------------------------------------------------
// ShmCombining, in-process half: threads through one object.

Request fetch_inc(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kFetchInc, 0};
}

// kThreads publishers issue kOps fetch&incs each through one object;
// the count, the tickets and the service-path telemetry must be exact.
// Publish-only publishers (may_combine = false) need a combiner, so a
// server thread loops try_serve while they run.
template <std::size_t kSlots>
void expect_exact_fetch_inc(bool may_combine) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 2000;
  ShmCombining<ShmCounter, kSlots> comb;

  std::atomic<bool> stop{false};
  std::thread server;
  if (!may_combine) {
    server = std::thread([&] {
      NativeContext ctx(kThreads);
      while (!stop.load(std::memory_order_acquire)) comb.try_serve(ctx);
    });
  }
  std::vector<std::vector<Response>> tickets(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      NativeContext ctx(static_cast<ProcessId>(t));
      auto& mine = tickets[static_cast<std::size_t>(t)];
      mine.reserve(kOps);
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const ModuleResult r = comb.invoke(
            ctx,
            fetch_inc((static_cast<std::uint64_t>(t) << 32) | i,
                      static_cast<ProcessId>(t)),
            std::nullopt, may_combine);
        ASSERT_TRUE(r.committed());
        mine.push_back(r.response);
      }
    });
  }
  for (auto& th : pool) th.join();
  stop.store(true, std::memory_order_release);
  if (server.joinable()) server.join();
  NativeContext main_ctx(kThreads + 1);
  comb.drain(main_ctx);

  constexpr std::uint64_t kTotal = kThreads * kOps;
  EXPECT_EQ(comb.object().value(), static_cast<std::int64_t>(kTotal));
  // fetch&inc tickets: every response distinct, exactly [0, total).
  std::set<Response> all;
  for (const auto& mine : tickets) all.insert(mine.begin(), mine.end());
  EXPECT_EQ(all.size(), kTotal);
  EXPECT_EQ(*all.begin(), 0);
  EXPECT_EQ(*all.rbegin(), static_cast<Response>(kTotal - 1));
  // Every op went through exactly one of the two service paths.
  EXPECT_EQ(comb.direct_ops() + comb.combined_ops(), kTotal);
  EXPECT_EQ(comb.occupied(), 0u);
  EXPECT_EQ(comb.pending(), 0u);
}

TEST(ShmCombining, ThreadedFetchIncIsExactWithUniqueTickets) {
  expect_exact_fetch_inc<8>(/*may_combine=*/true);
}

// Claim exhaustion: four publish-only threads share two records, so
// at least two of them at a time find every record taken and park in
// claim() until a publisher's collect frees one.
TEST(ShmCombining, ClaimExhaustionParksAndStaysExact) {
  expect_exact_fetch_inc<2>(/*may_combine=*/false);
}

SCM_ASSERT_ADDRESS_FREE(InitEcho);

// The cross-process twin of combining_test's
// Combining.SeededInitsPlumbThroughThePublicationSlot: a
// may_combine = false publisher against a serving thread, one record,
// so every op's request and then its result cross the same payload
// bytes. Op k alternates with-init/without-init every op and
// commit/abort every 4.
TEST(ShmCombining, SeededInitsPlumbThroughThePublicationSlot) {
  ShmCombining<InitEcho, 1> comb;
  std::atomic<bool> stop{false};
  std::thread server([&] {
    NativeContext ctx(1);
    while (!stop.load(std::memory_order_acquire)) comb.try_serve(ctx);
  });

  NativeContext ctx(0);
  constexpr std::uint64_t kOps = 16;
  for (std::uint64_t k = 0; k < kOps; ++k) {
    const bool aborts = (k / 4) % 2 == 1;
    const std::optional<SwitchValue> init =
        k % 2 == 0
            ? std::optional<SwitchValue>(static_cast<SwitchValue>(10 + k))
            : std::nullopt;
    const SwitchValue expect = init.value_or(InitEcho::kNoInit);
    const ModuleResult r =
        comb.invoke(ctx, Request{k + 1, 0, 0, aborts ? 1 : 0}, init,
                    /*may_combine=*/false);
    if (aborts) {
      EXPECT_EQ(r.outcome, Outcome::kAbort) << "op " << k;
      EXPECT_EQ(r.switch_value, expect) << "op " << k;
      EXPECT_EQ(r.response, kNoResponse) << "op " << k;
    } else {
      EXPECT_EQ(r.outcome, Outcome::kCommit) << "op " << k;
      EXPECT_EQ(r.response, expect) << "op " << k;
      EXPECT_EQ(r.switch_value, 0) << "op " << k;
    }
  }
  stop.store(true, std::memory_order_release);
  server.join();
  // Every op crossed the record and was served by the server thread.
  EXPECT_EQ(comb.combined_ops(), kOps);
  EXPECT_EQ(comb.direct_ops(), 0u);
  EXPECT_EQ(comb.occupied(), 0u);
}

// The cross-process counterpart of combining_test's
// Combining.RmwBudgetIsTheElectionPlusTheClaimWhenPublished. A solo
// may_combine = true op pays the gate CAS and nothing else. A
// may_combine = false publisher pays its claim, and the context that
// serves it pays the gate: one RMW per successful try_serve pass,
// none for a pass that finds the gate taken. InitEcho does no RMW of
// its own, so the counts are the wrapper's alone.
TEST(ShmCombining, RmwBudgetIsTheGatePlusTheClaimWhenPublished) {
  ShmCombining<InitEcho, 4> comb;
  NativeContext ctx(0);
  constexpr std::uint64_t kOps = 10;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const StepCounters before = ctx.counters();
    ASSERT_TRUE(comb.invoke(ctx, Request{i + 1, 0, 0, 0}).committed());
    EXPECT_EQ((ctx.counters() - before).rmws, 1u) << "fast-path op " << i;
  }
  EXPECT_EQ(comb.direct_ops(), kOps);

  std::atomic<bool> stop{false};
  std::uint64_t passes = 0;
  std::uint64_t off_budget = 0;
  std::thread server([&] {
    NativeContext server_ctx(1);
    while (!stop.load(std::memory_order_acquire)) {
      const StepCounters before = server_ctx.counters();
      const bool served = comb.try_serve(server_ctx);
      passes += served ? 1 : 0;
      if ((server_ctx.counters() - before).rmws != (served ? 1u : 0u)) {
        ++off_budget;
      }
    }
  });
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const StepCounters before = ctx.counters();
    ASSERT_TRUE(comb.invoke(ctx, Request{kOps + i + 1, 0, 0, 0}, std::nullopt,
                            /*may_combine=*/false)
                    .committed());
    EXPECT_EQ((ctx.counters() - before).rmws, 1u) << "published op " << i;
  }
  stop.store(true, std::memory_order_release);
  server.join();
  EXPECT_EQ(off_budget, 0u);
  EXPECT_GE(passes, kOps);
  // One publisher in flight at a time: every op is its own round.
  EXPECT_EQ(comb.combined_ops(), kOps);
  EXPECT_EQ(comb.combine_rounds(), kOps);
  EXPECT_EQ(comb.direct_ops(), kOps);
  EXPECT_EQ(comb.occupied(), 0u);
}

// ---------------------------------------------------------------------------
// Client processes: helpers shared by the multi-process tests below.

using clock_type = std::chrono::steady_clock;

// Every wait in these tests is bounded: a wedged protocol fails the
// test instead of hanging the suite.
constexpr auto kDeadline = std::chrono::seconds(30);

// Waits for `pid` to exit until `deadline`; false on timeout.
bool reap_by(pid_t pid, int* status, clock_type::time_point deadline) {
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 || clock_type::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// SIGKILLs and reaps every child still registered when the test scope
// ends, so a failed assertion never leaves a client behind.
struct ChildReaper {
  std::vector<pid_t> pids;
  void forget(pid_t pid) {
    pids.erase(std::remove(pids.begin(), pids.end(), pid), pids.end());
  }
  ~ChildReaper() {
    for (const pid_t pid : pids) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

// Per-client accounting, one cache line each, in the shared segment.
// `started` advances before the op is published and `completed` after
// its result is collected, so a client killed at any instruction
// leaves at most one op between the two, and
//   sum(completed) <= counter <= sum(started)
// bounds the counter exactly.
struct alignas(kCacheLineSize) ClientCell {
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> completed{0};
};

// The body of a forked client: `ops` fetch&incs published with
// may_combine = false, so the op executes only on the serving
// process, and a client can die holding a slot but never the gate.
[[noreturn]] void run_client(TestCombining& comb, ClientCell& cell,
                             ProcessId id, std::uint64_t ops) {
  NativeContext ctx(id);
  for (std::uint64_t i = 0; i < ops; ++i) {
    cell.started.store(i + 1, std::memory_order_release);
    const auto op = (static_cast<std::uint64_t>(id) << 40) | (i + 1);
    const ModuleResult r = comb.invoke(ctx, fetch_inc(op, id), std::nullopt,
                                       /*may_combine=*/false);
    if (!r.committed()) ::_exit(13);
    cell.completed.store(i + 1, std::memory_order_release);
  }
  ::_exit(0);
}

// ---------------------------------------------------------------------------
// N processes, one object: the fork()-based equivalence check. Each
// client reaches the object through its own mapping of the segment, at
// its own address, as a separately started process would.

class ShmCombiningClients : public testing::TestWithParam<int> {};

TEST_P(ShmCombiningClients, ClientProcessesCombineThroughTheirOwnMappings) {
  constexpr std::uint64_t kOps = 1500;
  const int clients = GetParam();
  SharedMapping mapping(sizeof(TestCombining));
  TestCombining& comb = mapping.emplace<TestCombining>();

  ChildReaper reaper;
  std::vector<pid_t> children;
  for (int k = 1; k <= clients; ++k) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Child: reach the object through a fresh mapping at its own base
      // address, not the one inherited from the parent. Plain _exit
      // codes instead of gtest: the child must never run the parent's
      // test teardown.
      auto* mine = static_cast<TestCombining*>(mapping.map_again());
      if (mine == &comb) ::_exit(10);
      const auto id = static_cast<ProcessId>(k);
      NativeContext ctx(id);
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const ModuleResult r = mine->invoke(
            ctx, fetch_inc((static_cast<std::uint64_t>(id) << 40) | i, id));
        if (!r.committed()) ::_exit(13);
      }
      ::_exit(0);
    }
    reaper.pids.push_back(child);
    children.push_back(child);
  }

  // Parent: combine into the same object through its own mapping,
  // concurrently with the clients.
  NativeContext ctx(0);
  std::set<Response> mine;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const ModuleResult r = comb.invoke(ctx, fetch_inc(i, 0));
    ASSERT_TRUE(r.committed());
    mine.insert(r.response);
  }

  const auto deadline = clock_type::now() + kDeadline;
  for (const pid_t child : children) {
    int status = 0;
    ASSERT_TRUE(reap_by(child, &status, deadline)) << "client wedged";
    reaper.forget(child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  comb.drain(ctx);
  // Exact equivalence: every process's ops landed exactly once.
  const auto total = static_cast<std::uint64_t>(clients + 1) * kOps;
  EXPECT_EQ(comb.object().value(), static_cast<std::int64_t>(total));
  // The parent's tickets alone are distinct and within range.
  EXPECT_EQ(mine.size(), kOps);
  EXPECT_LT(*mine.rbegin(), static_cast<Response>(total));
  EXPECT_EQ(comb.occupied(), 0u);
  EXPECT_EQ(comb.reclaim_dead(ctx), 0u);  // nothing dead, nothing swept
}

INSTANTIATE_TEST_SUITE_P(Clients, ShmCombiningClients, testing::Values(1, 3),
                         testing::PrintToStringParamName());

// ---------------------------------------------------------------------------
// Crash reclaim: the publisher dies, the operation does not get lost,
// and the residue is swept.

TEST(ShmCombining, SigkilledPublisherIsExecutedThenReclaimed) {
  SharedMapping mapping(sizeof(TestCombining));
  TestCombining& comb = mapping.emplace<TestCombining>();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: publish ONE op with may_combine = false. With no server
    // anywhere, this blocks in the collect spin forever — exactly the
    // window the SIGKILL below lands in. The inherited MAP_SHARED
    // mapping is the same physical object the parent sees.
    NativeContext ctx(1);
    (void)comb.invoke(ctx, fetch_inc(1, 1), std::nullopt,
                      /*may_combine=*/false);
    ::_exit(0);  // unreachable: the parent kills us mid-wait
  }

  // Wait until the child's publication is visible (kPending), so the
  // kill deterministically lands between publish and collect.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (comb.pending() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "child never published";
    std::this_thread::yield();
  }

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The publication survived its publisher.
  NativeContext ctx(0);
  EXPECT_EQ(comb.pending(), 1u);
  // kPending is exempt from reclaim: the op must execute, not vanish.
  EXPECT_EQ(comb.reclaim_dead(ctx), 0u);
  EXPECT_EQ(comb.pending(), 1u);

  // A combine pass executes the dead publisher's op...
  EXPECT_TRUE(comb.try_serve(ctx));
  EXPECT_EQ(comb.object().value(), 1);
  // ...leaving a kDone record no one will ever collect.
  EXPECT_EQ(comb.pending(), 0u);
  EXPECT_EQ(comb.occupied(), 1u);

  // The injectable probe gates the sweep: with every pid declared
  // alive nothing is touched; with the real probe the corpse's record
  // is freed.
  EXPECT_EQ(comb.reclaim_dead(ctx, [](std::uint32_t) { return true; }), 0u);
  EXPECT_EQ(comb.occupied(), 1u);
  EXPECT_EQ(comb.reclaim_dead(ctx), 1u);
  EXPECT_EQ(comb.occupied(), 0u);

  // The object is fully serviceable again after the sweep.
  EXPECT_TRUE(comb.invoke(ctx, fetch_inc(2, 0)).committed());
  EXPECT_EQ(comb.object().value(), 2);
}

// ---------------------------------------------------------------------------
// Crash under load: clients publish to a serving process, and one of
// them is SIGKILLed mid-run while the others keep going.

TEST(ShmCombining, SigkilledClientUnderLoadReconcilesAndIsReclaimed) {
  constexpr int kClients = 3;  // client 0 is the victim
  constexpr std::uint64_t kSurvivorOps = 2000;
  // The victim never finishes on its own: it is still mid-run whenever
  // the kill lands.
  constexpr std::uint64_t kVictimOps = std::uint64_t{1} << 40;
  struct Segment {
    TestCombining comb;
    ClientCell cells[kClients];
  };
  SharedMapping mapping(sizeof(Segment));
  Segment& segment = mapping.emplace<Segment>();
  TestCombining& comb = segment.comb;
  ClientCell* cells = segment.cells;

  ChildReaper reaper;
  std::vector<pid_t> pids;
  for (int k = 0; k < kClients; ++k) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      run_client(comb, cells[k], static_cast<ProcessId>(k + 1),
                 k == 0 ? kVictimOps : kSurvivorOps);
    }
    reaper.pids.push_back(child);
    pids.push_back(child);
  }

  // This thread is the server: the only combiner, since every client
  // publishes with may_combine = false.
  NativeContext ctx(0);
  const auto deadline = clock_type::now() + kDeadline;
  const auto in_flight = [&](int k) {
    return cells[k].started.load(std::memory_order_acquire) >
           cells[k].completed.load(std::memory_order_acquire);
  };

  // Serve until the victim's first op has completed and its second
  // has started.
  while (cells[0].started.load(std::memory_order_acquire) < 2) {
    ASSERT_LT(clock_type::now(), deadline) << "victim never got served";
    comb.try_serve(ctx);
  }

  // Stop serving until every live client is parked on a published op.
  // With no combiner nothing completes, so once each client is either
  // done or in flight, and as many ops are pending as clients are in
  // flight, the state is frozen, and the victim's op is kPending.
  for (;;) {
    ASSERT_LT(clock_type::now(), deadline) << "clients never settled";
    std::size_t waiting = 0;
    bool settled = true;
    for (int k = 0; k < kClients; ++k) {
      const std::uint64_t ops = k == 0 ? kVictimOps : kSurvivorOps;
      if (in_flight(k)) {
        ++waiting;
      } else if (cells[k].completed.load(std::memory_order_acquire) != ops) {
        settled = false;
      }
    }
    if (settled && comb.pending() == waiting) break;
    std::this_thread::yield();
  }

  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
  int victim_status = 0;
  ASSERT_TRUE(reap_by(pids[0], &victim_status, deadline));
  reaper.forget(pids[0]);
  ASSERT_TRUE(WIFSIGNALED(victim_status));
  EXPECT_EQ(WTERMSIG(victim_status), SIGKILL);

  // Serve the survivors to the end, sweeping the corpse's residue on
  // the way, as a long-running server would.
  std::size_t reclaimed = 0;
  for (int k = 1; k < kClients; ++k) {
    int status = 0;
    for (;;) {
      ASSERT_LT(clock_type::now(), deadline) << "survivor never finished";
      comb.try_serve(ctx);
      reclaimed += comb.reclaim_dead(ctx);
      const pid_t r = ::waitpid(pids[k], &status, WNOHANG);
      ASSERT_GE(r, 0);
      if (r == pids[k]) break;
    }
    reaper.forget(pids[k]);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "survivor " << k;
  }

  // Quiesce: execute anything still published, then sweep the dead.
  comb.drain(ctx);
  reclaimed += comb.reclaim_dead(ctx);
  EXPECT_EQ(comb.occupied(), 0u);
  // The victim's kPending op was executed, then its kDone record swept.
  EXPECT_EQ(reclaimed, 1u);

  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  for (int k = 0; k < kClients; ++k) {
    started += cells[k].started.load(std::memory_order_acquire);
    completed += cells[k].completed.load(std::memory_order_acquire);
  }
  for (int k = 1; k < kClients; ++k) {
    EXPECT_EQ(cells[k].started.load(), kSurvivorOps) << "survivor " << k;
    EXPECT_EQ(cells[k].completed.load(), kSurvivorOps) << "survivor " << k;
  }
  const auto counter = static_cast<std::uint64_t>(comb.object().value());
  EXPECT_LE(completed, counter);
  EXPECT_LE(counter, started);
  // The kill landed on a published op, which executes, not vanishes.
  EXPECT_EQ(counter, started);
}

// ---------------------------------------------------------------------------
// Stall: a client facing a server that does not serve yet must park on
// the segment's futex word, not burn its core.

TEST(ShmCombining, ClientFacingAStalledServerParks) {
  constexpr std::uint64_t kOps = 64;
  struct Segment {
    TestCombining comb;
    ClientCell cell;
  };
  SharedMapping mapping(sizeof(Segment));
  Segment& segment = mapping.emplace<Segment>();
  TestCombining& comb = segment.comb;
  ClientCell& cell = segment.cell;

  ChildReaper reaper;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) run_client(comb, cell, 1, kOps);
  reaper.pids.push_back(child);

  const auto deadline = clock_type::now() + kDeadline;
  while (cell.started.load(std::memory_order_acquire) < 1) {
    ASSERT_LT(clock_type::now(), deadline) << "client never started";
    std::this_thread::yield();
  }
  // The client's first op is being published and nobody serves it:
  // 100 ms outlasts the whole spin/yield ladder, so its wait must park.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  NativeContext ctx(0);
  int status = 0;
  for (;;) {
    ASSERT_LT(clock_type::now(), deadline) << "client never finished";
    comb.try_serve(ctx);
    const pid_t r = ::waitpid(child, &status, WNOHANG);
    ASSERT_GE(r, 0);
    if (r == child) break;
  }
  reaper.forget(child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The park counter lives in the segment, so the client's parks show
  // here. The yield fallback counts its saturated yields as parks, so
  // this holds when built with -DSCM_FORCE_NO_FUTEX too.
  EXPECT_GT(comb.park_stats().parks, 0u);
  comb.drain(ctx);
  EXPECT_EQ(comb.object().value(), static_cast<std::int64_t>(kOps));
  EXPECT_EQ(cell.started.load(), kOps);
  EXPECT_EQ(cell.completed.load(), kOps);
  EXPECT_EQ(comb.occupied(), 0u);
}

// ---------------------------------------------------------------------------
// Kill point: a combiner SIGKILLed while it holds the gate.

// Blocks every op while `hold` is set, so the process running one as a
// combiner keeps the gate. It lives in the segment: the flag a forked
// child's op waits on is the one the parent clears.
struct GateHoldModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;
  std::atomic<std::uint32_t> hold{1};

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    while (hold.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    return ModuleResult::commit(static_cast<Response>(m.id));
  }
};
SCM_ASSERT_ADDRESS_FREE(GateHoldModule);

// A may_combine = true op wins the free gate and runs direct, so its
// process dies holding the gate under its pid, mid-batch. Only
// reclaim_dead's steal frees such a gate: without it every later op
// would wait on a holder that never releases. The object's state after
// a dead combiner's batch is unrecoverable by design, so only the gate
// and the next op are checked.
TEST(ShmCombining, SigkilledGateHolderIsStolenByReclaim) {
  using HoldCombining = ShmCombining<GateHoldModule, 4>;
  SharedMapping mapping(sizeof(HoldCombining));
  HoldCombining& comb = mapping.emplace<HoldCombining>();

  ChildReaper reaper;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    NativeContext ctx(1);
    (void)comb.invoke(ctx, Request{1, 1, 0, 0});
    ::_exit(0);  // unreachable: the flag stays set while the child lives
  }
  reaper.pids.push_back(child);

  const auto deadline = clock_type::now() + std::chrono::seconds(10);
  while (comb.gate_holder() != static_cast<std::uint32_t>(child)) {
    ASSERT_LT(clock_type::now(), deadline) << "child never took the gate";
    std::this_thread::yield();
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_TRUE(reap_by(child, &status, deadline));
  reaper.forget(child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  EXPECT_EQ(comb.gate_holder(), static_cast<std::uint32_t>(child));

  // The real kill(pid, 0) probe finds the reaped holder gone. The dead
  // process ran direct, so it held no record to sweep.
  NativeContext ctx(0);
  EXPECT_EQ(comb.reclaim_dead(ctx), 0u);
  ASSERT_EQ(comb.gate_holder(), 0u) << "the dead holder kept the gate";

  comb.object().hold.store(0, std::memory_order_release);
  EXPECT_TRUE(comb.invoke(ctx, Request{2, 0, 0, 0}).committed());
  EXPECT_EQ(comb.gate_holder(), 0u);
  EXPECT_EQ(comb.occupied(), 0u);
}

// ---------------------------------------------------------------------------
// A publish-only op made during a direct op's hold.

// Spins until `pred` holds, for at most 10 s; false when the deadline
// passed.
template <class Pred>
bool await_within_deadline(Pred&& pred) {
  const auto deadline = clock_type::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (clock_type::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// A may_combine = true op runs direct and holds the gate while a
// may_combine = false op publishes. No serving loop runs anywhere, so
// only the direct op's pass after its release can serve the
// publication. Without that pass the publisher would wait forever: the
// deadline turns that into a failure, and the drain that follows frees
// the publisher so the test still ends.
TEST(ShmCombining, PublicationDuringADirectHoldIsServedAfterTheRelease) {
  using HoldCombining = ShmCombining<GateHoldModule, 4>;
  SharedMapping mapping(sizeof(HoldCombining));
  HoldCombining& comb = mapping.emplace<HoldCombining>();

  std::thread holder([&] {
    NativeContext ctx(0);
    (void)comb.invoke(ctx, Request{1, 0, 0, 0});
  });
  EXPECT_TRUE(await_within_deadline([&] { return comb.gate_holder() != 0; }))
      << "the direct op never took the gate";

  std::atomic<bool> completed{false};
  ModuleResult result;
  std::thread publisher([&] {
    NativeContext ctx(1);
    result = comb.invoke(ctx, Request{2, 1, 0, 0}, std::nullopt,
                         /*may_combine=*/false);
    completed.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(await_within_deadline([&] { return comb.pending() == 1; }))
      << "the publisher never published";

  comb.object().hold.store(0, std::memory_order_release);
  holder.join();
  const bool served = await_within_deadline(
      [&] { return completed.load(std::memory_order_acquire); });
  EXPECT_TRUE(served) << "the publication waited past the direct op's "
                         "release with nobody to serve it";
  if (!served) {
    NativeContext ctx(2);
    comb.drain(ctx);
  }
  publisher.join();

  EXPECT_TRUE(result.committed());
  EXPECT_EQ(result.response, 2);
  EXPECT_EQ(comb.direct_ops(), 1u);
  EXPECT_EQ(comb.combine_rounds(), 1u);
  EXPECT_EQ(comb.combined_ops(), 1u);
  EXPECT_EQ(comb.gate_holder(), 0u);
  EXPECT_EQ(comb.occupied(), 0u);
}

}  // namespace
}  // namespace scm

#else  // !SCM_HAS_POSIX_SHM

TEST(Shm, SkippedOnThisPlatform) {
  GTEST_SKIP() << "POSIX shared memory is unavailable on this target";
}

#endif
