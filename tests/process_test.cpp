// Tests for the per-process identity cache (support/process.hpp) that
// keeps getpid() off the cross-process executor's hot path:
//
//  * after a process has resolved its id once, 10,000 ShmCombining
//    invokes and 10,000 try_serve passes make no getpid() call: the
//    syscall counterpart of the RmwBudget* tests, which pin RMWs;
//  * a child forked after its parent resolved the id stamps its own
//    pid: it dies holding a record, and the parent's reclaim_dead(ctx)
//    sweeps that record, which it does only if the stamp names the
//    dead child and not the live parent;
//  * forked children count into a segment-resident WaitPoint's cells,
//    which each picks by its own tally lease and pid, and no count is
//    lost where a child shares a cell with its parent or sibling.
//
// This translation unit defines getpid() itself. The definition takes
// the place of libc's for every call made from this executable, and
// counts them.
//
// fork() under ThreadSanitizer is unreliable, so this suite stays
// unlabeled (like shm_test and parking_test).
#include "support/process.hpp"

#include <gtest/gtest.h>

#include "shm/shm_arena.hpp"  // defines SCM_HAS_POSIX_SHM

#if SCM_HAS_POSIX_SHM && defined(__linux__)

#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <new>
#include <optional>
#include <thread>

#include "history/specs.hpp"
#include "runtime/context.hpp"
#include "shm/shm_combining.hpp"
#include "shm/shm_counter.hpp"
#include "support/parking.hpp"

namespace {
std::atomic<std::uint64_t> getpid_calls{0};
}  // namespace

extern "C" pid_t getpid() noexcept {
  getpid_calls.fetch_add(1, std::memory_order_relaxed);
  return static_cast<pid_t>(::syscall(SYS_getpid));
}

namespace scm {
namespace {

using clock_type = std::chrono::steady_clock;
using TestCombining = ShmCombining<ShmCounter, 8>;

Request fetch_inc(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kFetchInc, 0};
}

std::uint32_t kernel_pid() {
  return static_cast<std::uint32_t>(::syscall(SYS_getpid));
}

// A T in an anonymous MAP_SHARED mapping: a forked child writes the
// same physical object the parent reads.
template <class T>
class SharedObject {
 public:
  SharedObject()
      : mem_(::mmap(nullptr, sizeof(T), PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0)) {
    if (mem_ == MAP_FAILED) std::abort();
    new (mem_) T();
  }
  ~SharedObject() { ::munmap(mem_, sizeof(T)); }
  SharedObject(const SharedObject&) = delete;
  SharedObject& operator=(const SharedObject&) = delete;
  T& operator*() const noexcept { return *static_cast<T*>(mem_); }
  T* operator->() const noexcept { return static_cast<T*>(mem_); }

 private:
  void* mem_;
};

TEST(ProcessId, MatchesTheKernelAndTheCountingGetpidSeesCalls) {
  EXPECT_EQ(this_process_id(), kernel_pid());
  // The counter is live: a direct call lands in this file's getpid().
  const std::uint64_t before = getpid_calls.load(std::memory_order_relaxed);
  (void)::getpid();
  EXPECT_EQ(getpid_calls.load(std::memory_order_relaxed) - before, 1u);
}

TEST(ProcessId, NoGetpidCallPerInvokeOrServe) {
  constexpr std::uint64_t kOps = 10000;
  TestCombining comb;
  NativeContext ctx(0);
  // The first op resolves the id, if nothing in this process has yet.
  ASSERT_TRUE(comb.invoke(ctx, fetch_inc(0, 0)).committed());
  const std::uint64_t before = getpid_calls.load(std::memory_order_relaxed);

  // Fast-path invokes and idle serve passes on this thread.
  for (std::uint64_t i = 1; i <= kOps; ++i) {
    ASSERT_TRUE(comb.invoke(ctx, fetch_inc(i, 0)).committed());
    ASSERT_TRUE(comb.try_serve(ctx));
  }
  // Published invokes, served by another thread's try_serve loop.
  std::atomic<bool> stop{false};
  std::thread server([&] {
    NativeContext server_ctx(1);
    while (!stop.load(std::memory_order_acquire)) comb.try_serve(server_ctx);
  });
  for (std::uint64_t i = 1; i <= kOps; ++i) {
    ASSERT_TRUE(comb.invoke(ctx, fetch_inc(kOps + i, 0), std::nullopt,
                            /*may_combine=*/false)
                    .committed());
  }
  stop.store(true, std::memory_order_release);
  server.join();

  EXPECT_EQ(getpid_calls.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(comb.object().value(), static_cast<std::int64_t>(2 * kOps + 1));
  EXPECT_EQ(comb.occupied(), 0u);
}

TEST(ProcessId, ForkedChildStampsItsOwnPid) {
  struct Shared {
    TestCombining comb;
    std::atomic<std::uint32_t> child_id{0};
    std::atomic<std::uint32_t> child_kernel_pid{0};
  };
  SharedObject<Shared> shared;
  TestCombining& comb = shared->comb;
  NativeContext ctx(0);
  // The parent resolves its id before the fork.
  ASSERT_TRUE(comb.invoke(ctx, fetch_inc(0, 0)).committed());
  const std::uint32_t parent = this_process_id();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    shared->child_id.store(this_process_id(), std::memory_order_release);
    shared->child_kernel_pid.store(kernel_pid(), std::memory_order_release);
    // Publish one op with no server anywhere: the child blocks holding
    // its record until the parent kills it.
    NativeContext child_ctx(1);
    (void)comb.invoke(child_ctx, fetch_inc(1, 1), std::nullopt,
                      /*may_combine=*/false);
    ::_exit(0);  // unreachable
  }

  const auto deadline = clock_type::now() + std::chrono::seconds(30);
  while (comb.pending() == 0 && clock_type::now() < deadline) {
    std::this_thread::yield();
  }
  const bool published = comb.pending() == 1;
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(published) << "child never published";

  const std::uint32_t child_id =
      shared->child_id.load(std::memory_order_acquire);
  EXPECT_EQ(child_id, shared->child_kernel_pid.load(std::memory_order_acquire));
  EXPECT_EQ(child_id, static_cast<std::uint32_t>(child));
  EXPECT_NE(child_id, parent);
  EXPECT_EQ(this_process_id(), parent);  // the parent's cache is intact

  // Execute the dead child's op; its kDone record is then the corpse's
  // to sweep, which reclaim_dead does only if the stamp names the child.
  EXPECT_TRUE(comb.try_serve(ctx));
  EXPECT_EQ(comb.object().value(), 2);
  EXPECT_EQ(comb.occupied(), 1u);
  EXPECT_EQ(comb.reclaim_dead(ctx), 1u);
  EXPECT_EQ(comb.occupied(), 0u);
}

TEST(ProcessId, ForkedChildrenCountExactlyIntoASharedWaitPoint) {
  constexpr std::uint64_t kCounts = 1000;
  SharedObject<WaitPoint<FutexScope::kShared>> wp;
  wp->note_fast_wake();  // the parent's cell is drawn before the forks

  pid_t children[2];
  for (int k = 0; k < 2; ++k) {
    children[k] = ::fork();
    ASSERT_GE(children[k], 0);
    if (children[k] == 0) {
      for (std::uint64_t i = 0; i < kCounts; ++i) {
        wp->note_fast_wake();
        wp->note_spurious();
      }
      ::_exit(0);
    }
  }
  for (const pid_t child : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  const ParkStats s = wp->stats();
  EXPECT_EQ(s.fast_wakes, 1 + 2 * kCounts);
  EXPECT_EQ(s.spurious_wakes, 2 * kCounts);
}

}  // namespace
}  // namespace scm

#else

TEST(ProcessId, SkippedOnThisPlatform) {
  GTEST_SKIP() << "needs Linux and POSIX shared memory";
}

#endif
