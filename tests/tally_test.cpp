// Tests for the per-thread telemetry tally (support/tally.hpp) and its
// cell registry (support/process.hpp):
//
//  * a thread that exits hands its cell back, the next thread to start
//    leases that same cell and carries on its count, and the sums stay
//    exact across generations of threads counting side by side;
//  * with more live threads than cells, the threads left without a
//    cell count in the shared cell, and every count is kept;
//  * a forked child starts with an empty registry (it leases cell 0
//    although the parent's live threads hold cells), counts on top of
//    the parent's sums as they were at the fork, and its counts never
//    appear in the parent.
//
// Runs under the "tsan" ctest label: the registry's lease hand-off is
// the label's customer. The fork case forks from a process with live
// threads; its child creates no thread and leaves with _exit.
#include "support/tally.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace scm {
namespace {

// The calling thread's cell: leases one on first use.
std::uint32_t my_cell() { return detail::this_thread_tally_cell(); }

std::uint32_t leased_cells() {
  return static_cast<std::uint32_t>(std::popcount(
      detail::tally_cells_leased.load(std::memory_order_acquire)));
}

// Spins until `flag` is set; the tests' threads meet on these.
void await(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

TEST(Tally, CountsPerFieldAndReturnsTheCellsCount) {
  Tally<3> t;
  EXPECT_EQ(t.add(0), 1u);
  EXPECT_EQ(t.add(0), 2u);
  EXPECT_EQ(t.add(2, 40), 40u);
  EXPECT_EQ(t.sum(0), 2u);
  EXPECT_EQ(t.sum(1), 0u);
  EXPECT_EQ(t.sum(2), 40u);
  EXPECT_LT(my_cell(), kTallyCells);
}

TEST(Tally, ExitedThreadsHandTheirCellsOnWithTheirCounts) {
  constexpr int kGenerations = 6;
  constexpr int kThreads = 3;
  constexpr std::uint64_t kCounts = 20'000;
  Tally<2> t;
  (void)my_cell();
  const std::uint32_t leased_before = leased_cells();

  // One thread at a time: the next one leases the cell its predecessor
  // handed back, and finds that predecessor's count in it.
  std::uint32_t first_cell = kTallyCells;
  for (int g = 0; g < kGenerations; ++g) {
    std::uint32_t cell = kTallyCells;
    std::uint64_t seen = 0;
    std::thread([&] {
      cell = my_cell();
      seen = t.add(0, 0);
      for (std::uint64_t i = 0; i < kCounts; ++i) t.add(0);
    }).join();
    if (g == 0) first_cell = cell;
    ASSERT_LT(cell, kTallyCells);
    EXPECT_EQ(cell, first_cell) << "generation " << g;
    EXPECT_EQ(seen, static_cast<std::uint64_t>(g) * kCounts)
        << "generation " << g;
  }
  EXPECT_EQ(t.sum(0), kGenerations * kCounts);
  EXPECT_EQ(leased_cells(), leased_before);

  // Generations of threads counting side by side, each started while
  // the previous generation may still be exiting.
  std::vector<std::thread> prev;
  for (int g = 0; g < kGenerations; ++g) {
    std::vector<std::thread> next;
    for (int k = 0; k < kThreads; ++k) {
      next.emplace_back([&t] {
        for (std::uint64_t i = 0; i < kCounts; ++i) t.add(1);
      });
    }
    for (auto& th : prev) th.join();
    prev = std::move(next);
  }
  for (auto& th : prev) th.join();
  EXPECT_EQ(t.sum(1), kGenerations * kThreads * kCounts);
  EXPECT_EQ(t.sum(0), kGenerations * kCounts);
  EXPECT_EQ(leased_cells(), leased_before);
}

TEST(Tally, ThreadsBeyondTheCellsCountInTheSharedCell) {
  // Every cell is leased, then four threads more: at least those four
  // count in the shared cell. The threads with cells of their own count
  // first, then the shared cell's threads count side by side.
  constexpr int kThreads = static_cast<int>(kTallyCells) + 4;
  constexpr std::uint64_t kCounts = 100'000;
  Tally<1> t;
  std::atomic<int> drawn{0};
  std::atomic<int> shared{0};
  std::atomic<int> own_done{0};
  std::atomic<bool> go{false};
  std::atomic<bool> shared_go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&] {
      t.add(0);  // leases a cell, or finds none
      const bool on_shared = my_cell() == kTallyCells;
      if (on_shared) shared.fetch_add(1, std::memory_order_relaxed);
      drawn.fetch_add(1, std::memory_order_acq_rel);
      await(on_shared ? shared_go : go);
      for (std::uint64_t i = 1; i < kCounts; ++i) t.add(0);
      if (!on_shared) own_done.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  while (drawn.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  EXPECT_EQ(leased_cells(), kTallyCells);
  const int on_shared = shared.load(std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  while (own_done.load(std::memory_order_acquire) < kThreads - on_shared) {
    std::this_thread::yield();
  }
  shared_go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_GE(on_shared, 4);
  EXPECT_EQ(t.sum(0), kThreads * kCounts);
}

#if defined(__linux__)
TEST(Tally, ForkedChildStartsWithAnEmptyRegistry) {
  constexpr int kHolders = 3;
  Tally<1> t;
  t.add(0, 5);  // the forking thread holds a cell
  std::atomic<int> holding{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> holders;
  for (int k = 0; k < kHolders; ++k) {
    holders.emplace_back([&] {
      t.add(0, 10);
      holding.fetch_add(1, std::memory_order_acq_rel);
      await(release);
    });
  }
  while (holding.load(std::memory_order_acquire) < kHolders) {
    std::this_thread::yield();
  }
  ASSERT_GE(leased_cells(), static_cast<std::uint32_t>(kHolders + 1));
  const std::uint64_t at_fork = t.sum(0);
  ASSERT_EQ(at_fork, 5u + 10u * kHolders);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Exit codes name the first check that failed.
    if (detail::tally_cells_leased.load(std::memory_order_relaxed) != 0) {
      ::_exit(1);
    }
    t.add(0, 1000);
    if (my_cell() != 0) ::_exit(2);
    if (leased_cells() != 1) ::_exit(3);
    if (t.sum(0) != at_fork + 1000) ::_exit(4);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  release.store(true, std::memory_order_release);
  for (auto& th : holders) th.join();
  EXPECT_EQ(t.sum(0), at_fork);  // the child's counts stayed there
}
#endif

}  // namespace
}  // namespace scm
