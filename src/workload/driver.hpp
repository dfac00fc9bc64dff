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

#include <atomic>
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
#include <sched.h>
#endif

#include "runtime/context.hpp"
#include "runtime/ids.hpp"
#include "support/barrier.hpp"

namespace scm::workload {

// Whether spawned workers are pinned to CPUs (scm_bench --pin): set
// once at startup before any run_threads call; every spawned worker
// reads it. Pinning makes thread<->core placement stable across
// repetitions — cross-rep variance from the scheduler migrating
// workers disappears — at the cost of fixing the placement the
// measurement reports.
inline std::atomic<bool>& pin_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
inline void set_pin_workers(bool on) {
  pin_flag().store(on, std::memory_order_relaxed);
}
inline bool pin_workers() { return pin_flag().load(std::memory_order_relaxed); }

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

// Pins the calling worker to the (pid mod n)-th of the n CPUs in its
// sched_getaffinity mask: scm-worker-N lands on the same core every
// repetition, and workers spread over all available cores before
// doubling up. Indexing the mask (rather than 0..online-cores) keeps
// pinning correct inside cpuset-restricted containers, where the
// allowed CPUs need not start at 0 or be contiguous. Best-effort —
// failures and non-Linux hosts are ignored.
inline void pin_worker_thread(int pid) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int navail = CPU_COUNT(&allowed);
  if (navail <= 0) return;

  int skip = pid % navail;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- != 0) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    return;
  }
#else
  (void)pid;
#endif
}

// Shared worker-pool scaffolding for every driver shape (closed loop,
// open loop): spawns `threads` named/pinned workers, each with its own
// counting NativeContext, aligns workers and the measuring (main)
// thread on a barrier so t0 is taken when every worker is ready, runs
// worker(ctx, t) on each, and returns the measured wall-clock
// interval. Startup latency stays outside the measured interval; the
// interval can only overcount by the release itself.
template <class Worker>
double run_pool(int threads, std::vector<StepCounters>& counters,
                const Worker& worker) {
  SpinBarrier start(threads + 1);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));

  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      name_worker_thread(t);
      if (pin_workers()) pin_worker_thread(t);
      NativeContext ctx(static_cast<ProcessId>(t));
      start.arrive_and_wait();
      worker(ctx, t);
      counters[static_cast<std::size_t>(t)] = ctx.counters();
    });
  }

  while (start.arrived() != threads) {
  }
  const auto t0 = std::chrono::steady_clock::now();
  start.arrive_and_wait();
  for (auto& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// body(ctx, op_index) is called ops_per_thread times on each of
// `threads` threads. start_delay(pid) nanoseconds are waited (spinning)
// by each thread after the barrier — used to build staggered-arrival
// (low interval contention) phases.
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
  const double seconds =
      run_pool(threads, counters, [&](NativeContext& ctx, int t) {
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
        } else {
          (void)t;
        }
        for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
          body(ctx, i);
        }
      });

  DriverResult out;
  out.seconds = seconds;
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

// ---------------------------------------------------------------------------
// Open-loop driver: bounded-window asynchronous submission.
//
// run_threads measures a CLOSED loop — each thread blocks until its
// operation commits before issuing the next, so latency and throughput
// are the same number seen from two sides. The open-loop body detaches
// them: each thread keeps up to `window` submitted-but-uncompleted
// tickets in flight, blocking only when the window is full, so
// submission pressure stays up while completions straggle — the regime
// async submission exists for, and one no closed-loop scenario can
// express. Throughput (seconds / total_ops) covers submit through
// last-completion; completion latency is sampled per operation from
// submit to OBSERVED completion (tickets are polled once per loop
// iteration, so the observation granularity is one submission step —
// an open-loop run's natural harvest cadence, not a measurement bug).

// DriverResult plus one completion-latency sample per operation,
// merged across threads (nanoseconds, unordered).
struct OpenLoopResult {
  double seconds = 0.0;
  std::uint64_t total_ops = 0;
  std::vector<StepCounters> counters;  // per thread
  std::vector<double> latency_ns;      // one sample per completed op

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

// submit(ctx, i) issues operation i and returns a Ticket (any type
// with poll/try_result/wait — core/async.hpp); on_result(ctx, r) runs
// on the submitting thread as each result is harvested, in completion
// (FIFO-prefix) order. The per-thread window is collected
// oldest-first. A `window` at or above the async source's capacity (a
// Combining's kSlots) is safe — the source falls back to inline
// execution when its publication array is exhausted — but the cells
// past capacity measure that saturation regime rather than additional
// overlap.
template <class Submit, class OnResult>
OpenLoopResult run_open_loop(int threads, std::uint64_t ops_per_thread,
                             std::size_t window, const Submit& submit,
                             const OnResult& on_result) {
  if (threads <= 0 || ops_per_thread == 0) return OpenLoopResult{};
  if (window == 0) window = 1;

  std::vector<StepCounters> counters(static_cast<std::size_t>(threads));
  std::vector<std::vector<double>> lats(static_cast<std::size_t>(threads));

  const double seconds = detail::run_pool(
      threads, counters, [&, window](NativeContext& ctx, int t) {
        using Clock = std::chrono::steady_clock;
        using TicketT =
            std::remove_cvref_t<decltype(submit(ctx, std::uint64_t{0}))>;
        struct InFlight {
          TicketT ticket;
          Clock::time_point submitted;
          Clock::time_point completed;
          bool done = false;
        };
        // FIFO ring of in-flight submissions.
        std::vector<InFlight> ring(window);
        std::size_t head = 0;
        std::size_t live = 0;

        auto& lat = lats[static_cast<std::size_t>(t)];
        lat.reserve(ops_per_thread);

        // Consumes the (completed) head entry: records its latency and
        // hands the result to the caller.
        const auto harvest_head = [&] {
          InFlight& e = ring[head];
          lat.push_back(std::chrono::duration<double, std::nano>(
                            e.completed - e.submitted)
                            .count());
          const auto r = e.ticket.try_result();
          on_result(ctx, *r);
          e.done = false;
          head = (head + 1) % window;
          --live;
        };
        // Blocks on the head entry (wait() helps the source along, so
        // this converges even solo), then consumes it. The completion
        // stamp is taken before on_result runs, matching harvest_head
        // — latency samples never include the harvest callback.
        const auto wait_head = [&] {
          InFlight& e = ring[head];
          auto r = e.ticket.wait();
          lat.push_back(std::chrono::duration<double, std::nano>(
                            Clock::now() - e.submitted)
                            .count());
          on_result(ctx, r);
          e.done = false;
          head = (head + 1) % window;
          --live;
        };

        for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
          // Stamp completions across the whole window (freeing the
          // source's publication slots early), then pop the completed
          // FIFO prefix; if the window is still full, block on the
          // oldest.
          for (std::size_t k = 0; k < live; ++k) {
            InFlight& e = ring[(head + k) % window];
            if (!e.done && e.ticket.poll()) {
              e.done = true;
              e.completed = Clock::now();
            }
          }
          while (live > 0 && ring[head].done) harvest_head();
          if (live == window) wait_head();

          InFlight& e = ring[(head + live) % window];
          e.done = false;
          e.submitted = Clock::now();
          e.ticket = submit(ctx, i);
          ++live;
        }

        // Drain the tail of the window.
        while (live > 0) {
          if (ring[head].done) {
            harvest_head();
          } else {
            wait_head();
          }
        }
      });

  OpenLoopResult out;
  out.seconds = seconds;
  out.total_ops = static_cast<std::uint64_t>(threads) * ops_per_thread;
  out.counters = std::move(counters);
  out.latency_ns.reserve(out.total_ops);
  for (auto& v : lats) {
    out.latency_ns.insert(out.latency_ns.end(), v.begin(), v.end());
  }
  return out;
}

template <class Submit>
OpenLoopResult run_open_loop(int threads, std::uint64_t ops_per_thread,
                             std::size_t window, const Submit& submit) {
  return run_open_loop(threads, ops_per_thread, window, submit,
                       [](NativeContext&, const auto&) {});
}

}  // namespace scm::workload
