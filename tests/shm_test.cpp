// Tests for the cross-process composition fabric (src/shm/):
//
//  * the slot-protocol constants are ONE definition shared by the
//    in-process Combining and the cross-process ShmCombining (the
//    regression pin for the slot_protocol.hpp extraction), and the
//    owner-packed word helpers roundtrip;
//  * ShmArena lifecycle: create / attach / publish / resolve across
//    two independent mappings of one segment, the allocator's
//    free-list reuse and exhaustion behavior, and the fail-fast
//    attach paths (uninitialized magic, corrupted layout version);
//  * distinct ShmCombining instantiations carry distinct type tags;
//  * ShmSpinBarrier aligns arrivals across generations;
//  * ShmCombining executes a threaded fetch&inc workload with exact
//    counts and unique tickets (the in-process half of the
//    equivalence claim);
//  * one and three fork()ed client PROCESSES attach the segment by
//    name and combine into the same object — exact total, no residue;
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
//    so the server reads it) and still counts exactly.
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

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "history/specs.hpp"
#include "runtime/context.hpp"
#include "shm/shm_barrier.hpp"
#include "shm/shm_combining.hpp"
#include "shm/shm_counter.hpp"
#include "shm/shm_ref.hpp"
#include "support/cacheline.hpp"

namespace scm {
namespace {

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

// Any layout-determining difference must change the fingerprint.
static_assert(ShmCombining<ShmCounter, 8>::kTypeTag !=
                  ShmCombining<ShmCounter, 16>::kTypeTag,
              "slot count must be folded into the type tag");

TEST(SlotProtocol, OwnerPackedWordsRoundtrip) {
  const std::uint32_t pid = 0x7fff1234u;
  for (const SlotState s : {SlotState::kFree, SlotState::kClaimed,
                            SlotState::kPending, SlotState::kDone}) {
    const std::uint64_t w = pack_slot(s, pid);
    EXPECT_EQ(slot_state_of(w), s);
    EXPECT_EQ(slot_owner_of(w), pid);
  }
  EXPECT_EQ(pack_slot(SlotState::kFree, 0), 0u);  // zero-init == free
}

// ---------------------------------------------------------------------------
// Arena.

// Unique-per-test segment names: concurrent ctest invocations and
// leftover segments from a crashed previous run must not collide.
std::string unique_segment(const char* tag) {
  static int counter = 0;
  return "/scm-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(counter++);
}

// Unlinks the segment name when the test scope ends, pass or fail.
struct SegmentJanitor {
  std::string name;
  ~SegmentJanitor() { ShmArena::unlink(name); }
};

TEST(ShmArena, PublishResolveAndWritesCrossMappings) {
  const std::string name = unique_segment("xmap");
  SegmentJanitor janitor{name};

  std::string error;
  auto a = ShmArena::create(name, 1 << 20, &error);
  ASSERT_TRUE(a.has_value()) << error;
  EXPECT_EQ(a->capacity(), 1u << 20);
  EXPECT_GT(a->page_size(), 0u);

  // Second, independent mapping of the same segment — the in-process
  // stand-in for a second process.
  auto b = ShmArena::attach(name, &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_EQ(b->capacity(), a->capacity());

  const std::uint64_t off = a->construct<std::uint64_t>(0u);
  ASSERT_NE(off, 0u);
  ASSERT_TRUE(a->publish("word", off, sizeof(std::uint64_t), 7));

  // Resolve through the OTHER mapping and read the value written
  // through the first one: offsets, not addresses, cross the boundary.
  const auto found = b->resolve("word");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->offset, off);
  EXPECT_EQ(found->size, sizeof(std::uint64_t));
  EXPECT_EQ(found->type_tag, 7u);

  const ShmRef<std::uint64_t> ref(off);
  ref.in(*a) = 0xfeedface;
  EXPECT_EQ(ref.in(*b), 0xfeedfaceu);
  EXPECT_EQ(*b->at<std::uint64_t>(found->offset), 0xfeedfaceu);

  EXPECT_FALSE(b->resolve("no-such-name").has_value());
}

TEST(ShmArena, DuplicateCreateAndDuplicatePublishFail) {
  const std::string name = unique_segment("dup");
  SegmentJanitor janitor{name};

  auto a = ShmArena::create(name, 1 << 18);
  ASSERT_TRUE(a.has_value());

  // A second create of a live segment must fail loudly (stale-segment
  // safety), not silently reattach.
  std::string error;
  EXPECT_FALSE(ShmArena::create(name, 1 << 18, &error).has_value());
  EXPECT_FALSE(error.empty());

  const std::uint64_t off = a->construct<std::uint64_t>(1u);
  ASSERT_NE(off, 0u);
  EXPECT_TRUE(a->publish("obj", off, sizeof(std::uint64_t), 1));
  EXPECT_FALSE(a->publish("obj", off, sizeof(std::uint64_t), 1));  // dup
  // Over-long names are rejected, not truncated into collisions.
  EXPECT_FALSE(a->publish(std::string(ShmArena::kNameCapacity, 'x'), off,
                          sizeof(std::uint64_t), 1));
}

TEST(ShmArena, AllocatorReusesFreedBlocksAndReportsExhaustion) {
  const std::string name = unique_segment("alloc");
  SegmentJanitor janitor{name};

  auto a = ShmArena::create(name, 1 << 16);
  ASSERT_TRUE(a.has_value());

  const std::uint64_t first = a->alloc(256);
  ASSERT_NE(first, 0u);
  EXPECT_EQ(first % 16, 0u);
  a->free(first, 256);
  // First-fit over the free list: the freed block satisfies the next
  // same-size request exactly.
  EXPECT_EQ(a->alloc(256), first);

  // A freed block larger than the request is split, and the tail
  // serves a later request.
  const std::uint64_t big = a->alloc(512);
  ASSERT_NE(big, 0u);
  a->free(big, 512);
  EXPECT_EQ(a->alloc(128), big);
  EXPECT_EQ(a->alloc(128), big + 128);

  // Exhaustion is the null offset, not a crash.
  EXPECT_EQ(a->alloc(1 << 20), 0u);
}

TEST(ShmArena, AttachRejectsUninitializedSegment) {
  const std::string name = unique_segment("garbage");
  SegmentJanitor janitor{name};

  // A raw segment that never went through ShmArena::create: sized like
  // an arena but with no magic (and then with a WRONG magic).
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 1 << 18), 0);
  void* base = ::mmap(nullptr, 1 << 18, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd, 0);
  ::close(fd);
  ASSERT_NE(base, MAP_FAILED);

  std::string error;
  EXPECT_FALSE(ShmArena::attach(name, &error).has_value());  // zero magic
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  std::memset(base, 0x5a, 64);  // arbitrary non-arena bytes
  EXPECT_FALSE(ShmArena::attach(name, &error).has_value());
  ::munmap(base, 1 << 18);
}

TEST(ShmArena, AttachRejectsCorruptedLayoutVersion) {
  const std::string name = unique_segment("version");
  SegmentJanitor janitor{name};

  auto a = ShmArena::create(name, 1 << 18);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(ShmArena::attach(name).has_value());  // sane before corruption

  // Flip a bit in the version word (bytes 8..11 of the header: right
  // after the 8-byte magic) through a raw side mapping — the stand-in
  // for a binary built against a different header layout.
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  void* base = ::mmap(nullptr, 1 << 18, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd, 0);
  ::close(fd);
  ASSERT_NE(base, MAP_FAILED);
  static_cast<unsigned char*>(base)[8] ^= 0x01;

  std::string error;
  EXPECT_FALSE(ShmArena::attach(name, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  static_cast<unsigned char*>(base)[8] ^= 0x01;  // restore
  EXPECT_TRUE(ShmArena::attach(name).has_value());
  ::munmap(base, 1 << 18);
}

// ---------------------------------------------------------------------------
// Barrier.

TEST(ShmSpinBarrier, AlignsPartiesAcrossGenerations) {
  constexpr std::uint32_t kParties = 4;
  constexpr int kGenerations = 50;
  ShmSpinBarrier barrier(kParties);
  EXPECT_EQ(barrier.parties(), kParties);
  EXPECT_EQ(barrier.arrived(), 0u);

  // Every generation, every thread bumps the counter before the
  // barrier and checks the full bump after: a missed release would
  // show as a torn generation.
  std::atomic<std::uint32_t> entered{0};
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < kParties; ++t) {
    pool.emplace_back([&] {
      for (int g = 0; g < kGenerations; ++g) {
        entered.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        EXPECT_GE(entered.load(std::memory_order_relaxed),
                  static_cast<std::uint32_t>(g + 1) * kParties);
        barrier.arrive_and_wait();  // second phase: safe to re-enter
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(entered.load(), kParties * kGenerations);
  EXPECT_EQ(barrier.arrived(), 0u);  // every generation fully reset
}

// ---------------------------------------------------------------------------
// ShmCombining, in-process half: threads through one object.

Request fetch_inc(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kFetchInc, 0};
}

TEST(ShmCombining, ThreadedFetchIncIsExactWithUniqueTickets) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 2000;
  TestCombining comb;
  NativeContext main_ctx(0);

  std::vector<std::vector<Response>> tickets(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      NativeContext ctx(static_cast<ProcessId>(t));
      auto& mine = tickets[static_cast<std::size_t>(t)];
      mine.reserve(kOps);
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const ModuleResult r = comb.invoke(
            ctx, fetch_inc((static_cast<std::uint64_t>(t) << 32) | i,
                           static_cast<ProcessId>(t)));
        ASSERT_TRUE(r.committed());
        mine.push_back(r.response);
      }
    });
  }
  for (auto& th : pool) th.join();
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
// client attaches the segment by name, as a separate binary would.

class ShmCombiningClients : public testing::TestWithParam<int> {};

TEST_P(ShmCombiningClients, ClientProcessesAttachByNameAndCombine) {
  constexpr std::uint64_t kOps = 1500;
  const int clients = GetParam();
  const std::string name = unique_segment("fork-eq");
  SegmentJanitor janitor{name};

  auto arena = ShmArena::create(name, 1 << 20);
  ASSERT_TRUE(arena.has_value());
  const std::uint64_t off = arena->construct<TestCombining>();
  ASSERT_NE(off, 0u);
  ASSERT_TRUE(arena->publish("comb", off, sizeof(TestCombining),
                             TestCombining::kTypeTag));

  ChildReaper reaper;
  std::vector<pid_t> children;
  for (int k = 1; k <= clients; ++k) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Child: reach the object the way a separate binary would —
      // attach by NAME (a fresh mapping at its own base address),
      // resolve, tag check. Plain _exit codes instead of gtest: the
      // child must never run the parent's test teardown.
      auto mine = ShmArena::attach(name);
      if (!mine.has_value()) ::_exit(10);
      const auto found = mine->resolve("comb");
      if (!found.has_value()) ::_exit(11);
      if (found->type_tag != TestCombining::kTypeTag) ::_exit(12);
      TestCombining& comb = *mine->at<TestCombining>(found->offset);
      const auto id = static_cast<ProcessId>(k);
      NativeContext ctx(id);
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const ModuleResult r = comb.invoke(
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
  TestCombining& comb = *arena->at<TestCombining>(off);
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
  const std::string name = unique_segment("reclaim");
  SegmentJanitor janitor{name};

  auto arena = ShmArena::create(name, 1 << 20);
  ASSERT_TRUE(arena.has_value());
  const std::uint64_t off = arena->construct<TestCombining>();
  ASSERT_NE(off, 0u);
  TestCombining& comb = *arena->at<TestCombining>(off);

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
  const std::string name = unique_segment("crash");
  SegmentJanitor janitor{name};

  auto arena = ShmArena::create(name, 1 << 20);
  ASSERT_TRUE(arena.has_value());
  const std::uint64_t comb_off = arena->construct<TestCombining>();
  const std::uint64_t cells_off =
      arena->alloc(sizeof(ClientCell) * kClients, alignof(ClientCell));
  ASSERT_NE(comb_off, 0u);
  ASSERT_NE(cells_off, 0u);
  TestCombining& comb = *arena->at<TestCombining>(comb_off);
  ClientCell* cells = arena->at<ClientCell>(cells_off);
  for (int k = 0; k < kClients; ++k) new (&cells[k]) ClientCell;

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
  const std::string name = unique_segment("stall");
  SegmentJanitor janitor{name};

  auto arena = ShmArena::create(name, 1 << 20);
  ASSERT_TRUE(arena.has_value());
  const std::uint64_t comb_off = arena->construct<TestCombining>();
  const std::uint64_t cell_off = arena->construct<ClientCell>();
  const std::uint64_t barrier_off = arena->construct<ShmSpinBarrier>(2u);
  ASSERT_NE(comb_off, 0u);
  ASSERT_NE(cell_off, 0u);
  ASSERT_NE(barrier_off, 0u);
  TestCombining& comb = *arena->at<TestCombining>(comb_off);
  ClientCell& cell = *arena->at<ClientCell>(cell_off);
  ShmSpinBarrier& start = *arena->at<ShmSpinBarrier>(barrier_off);

  ChildReaper reaper;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    start.arrive_and_wait();
    run_client(comb, cell, 1, kOps);
  }
  reaper.pids.push_back(child);

  const auto deadline = clock_type::now() + kDeadline;
  while (start.arrived() < 1) {
    ASSERT_LT(clock_type::now(), deadline) << "client never arrived";
    std::this_thread::yield();
  }
  start.arrive_and_wait();
  // The client's first op is published and nobody serves it: 100 ms
  // outlasts the whole spin/yield ladder, so its wait must park.
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

}  // namespace
}  // namespace scm

#else  // !SCM_HAS_POSIX_SHM

TEST(Shm, SkippedOnThisPlatform) {
  GTEST_SKIP() << "POSIX shared memory is unavailable on this target";
}

#endif
