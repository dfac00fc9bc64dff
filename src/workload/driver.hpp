// Native multi-thread workload driver shared by the benchmark harness:
// spawns P OS threads, each with its own counting NativeContext, aligns
// them on a barrier, runs the supplied operation body, and aggregates
// per-thread step counters and wall-clock time.
//
// run_threads is templated on the body callable, so the per-operation
// call inlines into each worker's loop — a lambda body costs no
// indirect call per op. The std::function overloads below remain for
// callers that store type-erased bodies.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <type_traits>
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
  [[nodiscard]] double steps_per_op() const {
    return total_ops == 0 ? 0.0
                          : static_cast<double>(total_counters().total()) /
                                static_cast<double>(total_ops);
  }
  [[nodiscard]] double rmws_per_op() const {
    return total_ops == 0 ? 0.0
                          : static_cast<double>(total_counters().rmws) /
                                static_cast<double>(total_ops);
  }
};

namespace detail {

// Sentinel for "no staggered start" — lets the template skip the delay
// plumbing entirely instead of testing an empty std::function per run.
struct NoStartDelay {};

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

// body(ctx, op_index) is called ops_per_thread times on each of
// `threads` named workers, each with its own counting NativeContext.
// start_delay(pid) nanoseconds are waited (spinning) by each thread
// after the barrier — used to build staggered-arrival (low interval
// contention) phases. Workers and the measuring (main) thread align on
// a barrier so t0 is taken when every worker is ready: startup latency
// stays outside the measured interval, which can only overcount by the
// release itself.
template <class Body, class StartDelay>
DriverResult run_threads_impl(int threads, std::uint64_t ops_per_thread,
                              const Body& body,
                              const StartDelay& start_delay_ns) {
  constexpr bool kHasDelay =
      !std::is_same_v<std::remove_cvref_t<StartDelay>, NoStartDelay>;

  // Degenerate workloads produce an explicitly empty result instead of
  // spawning zero threads and reporting division-guarded zeros.
  if (threads <= 0 || ops_per_thread == 0) return DriverResult{};

  std::vector<StepCounters> counters(static_cast<std::size_t>(threads));
  SpinBarrier start(threads + 1);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));

  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      name_worker_thread(t);
      NativeContext ctx(static_cast<ProcessId>(t));
      start.arrive_and_wait();
      if constexpr (kHasDelay) {
        // Null-state callables (empty std::function, null function
        // pointer) mean "no delay", matching the legacy behaviour —
        // without this, an empty std::function would throw
        // bad_function_call in every worker.
        bool engaged = true;
        if constexpr (requires { static_cast<bool>(start_delay_ns); }) {
          engaged = static_cast<bool>(start_delay_ns);
        }
        if (engaged) {
          const auto wait = std::chrono::nanoseconds(start_delay_ns(t));
          const auto until = std::chrono::steady_clock::now() + wait;
          while (std::chrono::steady_clock::now() < until) {
          }
        }
      }
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

}  // namespace detail

// Primary entry point: any callable body (and, optionally, any callable
// start-delay), dispatched statically — no per-op indirect call.
template <class Body>
DriverResult run_threads(int threads, std::uint64_t ops_per_thread,
                         const Body& body) {
  return detail::run_threads_impl(threads, ops_per_thread, body,
                                  detail::NoStartDelay{});
}

template <class Body, class StartDelay>
DriverResult run_threads(int threads, std::uint64_t ops_per_thread,
                         const Body& body, const StartDelay& start_delay_ns) {
  return detail::run_threads_impl(threads, ops_per_thread, body,
                                  start_delay_ns);
}

// Type-erased overloads, for callers that keep bodies in std::function
// variables (pre-pipeline API; each op pays one indirect call). The
// non-template overload wins resolution for std::function lvalues, so
// existing callers keep their exact previous behaviour.
inline DriverResult run_threads(
    int threads, std::uint64_t ops_per_thread,
    const std::function<void(NativeContext&, std::uint64_t)>& body,
    const std::function<std::uint64_t(ProcessId)>& start_delay_ns = {}) {
  if (start_delay_ns) {
    return detail::run_threads_impl(threads, ops_per_thread, body,
                                    start_delay_ns);
  }
  return detail::run_threads_impl(threads, ops_per_thread, body,
                                  detail::NoStartDelay{});
}

}  // namespace scm::workload
