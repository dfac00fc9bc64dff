// Native multi-thread workload driver shared by the benchmark harness:
// spawns P OS threads, each with its own counting NativeContext, aligns
// them on a barrier, runs the supplied operation body, and aggregates
// per-thread step counters and wall-clock time.
//
// run_threads is templated on the body callable, so the per-operation
// call inlines into each worker's loop — a lambda body costs no
// indirect call per op.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "runtime/context.hpp"
#include "runtime/ids.hpp"
#include "support/barrier.hpp"

namespace scm::workload {

struct DriverResult {
  double seconds = 0.0;
  std::uint64_t total_ops = 0;
  std::vector<StepCounters> counters;  // per thread

  [[nodiscard]] double ns_per_op() const {
    return total_ops == 0 ? 0.0
                          : seconds * 1e9 / static_cast<double>(total_ops);
  }
  [[nodiscard]] StepCounters total_counters() const {
    StepCounters sum;
    for (const auto& c : counters) sum += c;
    return sum;
  }
};

namespace detail {

// Names the calling worker thread scm-worker-<pid> so profiles and
// debugger thread lists read as harness workers, not anonymous
// std::threads. Kernel thread names cap at 15 characters + NUL.
inline void name_worker_thread(int pid) {
#if defined(__linux__)
  char name[16];
  std::snprintf(name, sizeof(name), "scm-worker-%d", pid);
  (void)pthread_setname_np(pthread_self(), name);
#else
  (void)pid;
#endif
}

}  // namespace detail

// body(ctx, op_index) is called ops_per_thread times on each of
// `threads` named workers, each with its own counting NativeContext.
// Workers and the measuring (main) thread align on a barrier so t0 is
// taken when every worker is ready: startup latency stays outside the
// measured interval, which can only overcount by the release itself.
template <class Body>
DriverResult run_threads(int threads, std::uint64_t ops_per_thread,
                         const Body& body) {
  // Degenerate workloads produce an explicitly empty result instead of
  // spawning zero threads and reporting division-guarded zeros.
  if (threads <= 0 || ops_per_thread == 0) return DriverResult{};

  std::vector<StepCounters> counters(static_cast<std::size_t>(threads));
  SpinBarrier start(threads + 1);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));

  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      detail::name_worker_thread(t);
      NativeContext ctx(static_cast<ProcessId>(t));
      start.arrive_and_wait();
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        body(ctx, i);
      }
      counters[static_cast<std::size_t>(t)] = ctx.counters();
    });
  }

  while (start.arrived() != threads) {
  }
  const auto t0 = std::chrono::steady_clock::now();
  start.arrive_and_wait();
  for (auto& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  DriverResult out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.total_ops = static_cast<std::uint64_t>(threads) * ops_per_thread;
  out.counters = std::move(counters);
  return out;
}

}  // namespace scm::workload
