// Measurement harness shared by the four end-to-end workloads: the
// clock, CPU-time and percentile helpers, the per-run report, and the
// closed-loop phase driver every in-process workload runs under.
//
// Every workload is a closed loop: a caller issues its next operation
// only after the previous one completed (or, for the async workload,
// after its bounded ticket window has room). The driver runs each
// worker through the same phases, separated by barriers so the main
// thread can snapshot layer counters while no operation is in flight:
//
//   setup    construct the stack, pre-populate, generate the op
//            streams, spawn the workers — repeated kSetups times, the
//            median is setup_s and the last set-up is the one measured
//            (the first set-ups of a process run cold and slow)
//   warmup   run for kWarmupS seconds of wall-clock time
//   window   run for --seconds; only this window is measured, and
//            every per-layer counter is reported as a delta over it
//
// The window is cut into slices of about a second, and each end-to-end
// metric is the median of its per-slice values.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/ids.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"
#include "support/stats.hpp"

namespace perfbench {

// Every workload drives 4 threads or processes: the reference host has
// 4 CPUs, and no workload may run more than nproc of them.
inline constexpr int kThreads = 4;
// Latency and trace sampling period, in operations per thread.
inline constexpr std::uint64_t kSampleEvery = 64;
// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 15;
// Wall-clock warmup before every measured window. On a host that has
// just been idle the threads do not all run at once for the first
// seconds, and a window that starts then measures an uncontended stack.
inline constexpr double kWarmupS = 2.0;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// User + system CPU time of this process, all its threads.
inline double cpu_seconds() noexcept {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

inline double ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

// The q-quantile of integer-nanosecond samples. Each sample stands for
// the interval [v - 0.5, v + 0.5) and the quantile is interpolated
// inside the interval holding it, so a percentile that falls among
// many equal readings still moves with their count instead of reading
// as the same integer on every run.
inline double quantile(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  const auto idx = std::min(v.size() - 1, static_cast<std::size_t>(target));
  const std::uint32_t x = v[idx];
  const auto lo = static_cast<double>(
      std::lower_bound(v.begin(), v.end(), x) - v.begin());
  const auto hi = static_cast<double>(
      std::upper_bound(v.begin(), v.end(), x) - v.begin());
  return static_cast<double>(x) - 0.5 + (target - lo) / (hi - lo);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Non-empty selects the traced run: every layer boundary records
  // spans, and the Chrome trace is written here.
  std::string trace_path;

  [[nodiscard]] bool traced() const noexcept { return !trace_path.empty(); }
};

// What one run reports: every operation attempted in the measured
// window, the failures among them (bad results plus check
// violations), the layers the stack contains, and the metrics.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<std::string> layers;
  std::map<std::string, double> metrics;

  void violation(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    violations.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) violation(what);
  }
};

// One worker's view of the measured window (its own cache line: the
// worker writes it from the measured loop). `progress` and `sampled`
// publish the running operation and latency-sample counts to the
// thread that marks slice boundaries.
struct alignas(scm::kCacheLineSize) ThreadRecord {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  scm::StepCounters steps{};
  std::vector<std::uint32_t> lat_ns;
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> sampled{0};

  void publish(std::uint64_t n) noexcept {
    progress.store(n, std::memory_order_relaxed);
    sampled.store(lat_ns.size(), std::memory_order_relaxed);
  }
};

// A slice boundary: wall time, CPU time, and each worker's operation
// and latency-sample counts. Per-slice medians keep a stall of the
// host that hits part of a run from moving the run's result by more
// than one slice's rank.
struct Mark {
  std::uint64_t t_ns = 0;
  double cpu_s = 0.0;
  std::vector<std::uint64_t> ops;
  std::vector<std::uint64_t> sampled;
};

inline int slice_count(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds)));
}

template <class Records>
Mark mark(double cpu_s, const Records& recs) {
  Mark m{now_ns(), cpu_s, {}, {}};
  for (const auto& r : recs) {
    m.ops.push_back(r.progress.load(std::memory_order_relaxed));
    m.sampled.push_back(r.sampled.load(std::memory_order_relaxed));
  }
  return m;
}

// Combining-layer telemetry snapshot, for any object that forwards
// Combining's counters (a Combining, a Sharded of them, an Adaptive).
struct CombiningSnap {
  std::uint64_t direct = 0;
  std::uint64_t combined = 0;
  std::uint64_t rounds = 0;
  scm::ParkStats park{};
};

template <class C>
CombiningSnap snap_combining(const C& c) {
  return {c.direct_ops(), c.combined_ops(), c.combine_rounds(),
          c.park_stats()};
}

// The combining and parking per-layer metrics, as deltas over the
// window; `ops` is the number of operations the window issued.
inline void combining_metrics(Report& rep, const CombiningSnap& a,
                              const CombiningSnap& b, double ops,
                              std::size_t occupied_after) {
  const auto direct = static_cast<double>(b.direct - a.direct);
  const auto combined = static_cast<double>(b.combined - a.combined);
  const auto rounds = static_cast<double>(b.rounds - a.rounds);
  rep.metrics["combining.fastpath_share"] = ratio(direct, direct + combined);
  rep.metrics["combining.ops_per_combine"] = ratio(combined, rounds);
  rep.metrics["combining.rounds_per_op"] = ratio(rounds, ops);
  rep.metrics["combining.occupied_after"] =
      static_cast<double>(occupied_after);
  const auto parks = static_cast<double>(b.park.parks - a.park.parks);
  const auto fast = static_cast<double>(b.park.fast_wakes - a.park.fast_wakes);
  rep.metrics["parking.parks_per_mop"] = ratio(parks * 1e6, ops);
  rep.metrics["parking.futex_syscalls_per_mop"] = ratio(
      static_cast<double>(b.park.futex_syscalls - a.park.futex_syscalls) * 1e6,
      ops);
  rep.metrics["parking.spurious_wakes"] =
      static_cast<double>(b.park.spurious_wakes - a.park.spurious_wakes);
  rep.metrics["parking.park_ratio"] = ratio(parks, parks + fast);
}

// The end-to-end metrics (medians over the slices between consecutive
// marks; the last mark is taken once the window has drained) and the
// workload layer's own numbers, from the per-worker records of one
// measured window.
inline void window_metrics(Report& rep, scm::Samples setups, double warmup_s,
                           const std::vector<Mark>& marks,
                           const std::vector<ThreadRecord>& recs) {
  scm::Samples thr, p50, p99, cpu;
  for (std::size_t k = 0; k + 1 < marks.size(); ++k) {
    const Mark& a = marks[k];
    const Mark& b = marks[k + 1];
    std::uint64_t ops = 0;
    std::vector<std::uint32_t> lat;
    for (std::size_t t = 0; t < recs.size(); ++t) {
      ops += b.ops[t] - a.ops[t];
      const auto& v = recs[t].lat_ns;
      lat.insert(lat.end(), v.begin() + static_cast<std::ptrdiff_t>(a.sampled[t]),
                 v.begin() + static_cast<std::ptrdiff_t>(b.sampled[t]));
    }
    const auto n = static_cast<double>(ops);
    thr.add(ratio(n, static_cast<double>(b.t_ns - a.t_ns) * 1e-9) * 1e-6);
    cpu.add(ratio((b.cpu_s - a.cpu_s) * 1e9, n));
    p50.add(quantile(lat, 0.50));
    p99.add(quantile(std::move(lat), 0.99));
  }
  rep.metrics["throughput_mops"] = thr.median();
  rep.metrics["lat_p50_ns"] = p50.median();
  rep.metrics["lat_p99_ns"] = p99.median();
  rep.metrics["cpu_ns_per_op"] = cpu.median();
  rep.metrics["setup_s"] = setups.median();

  std::uint64_t ops = 0;
  std::uint64_t min_ops = ~std::uint64_t{0};
  std::uint64_t samples = 0;
  scm::StepCounters steps{};
  for (const ThreadRecord& r : recs) {
    ops += r.ops;
    min_ops = std::min(min_ops, r.ops);
    steps += r.steps;
    samples += r.lat_ns.size();
    rep.failed += r.failed;
  }
  const auto n = static_cast<double>(ops);
  const double measure_s =
      static_cast<double>(marks.back().t_ns - marks.front().t_ns) * 1e-9;
  rep.attempted += ops;
  rep.metrics["runtime.steps_per_op"] =
      ratio(static_cast<double>(steps.total()), n);
  rep.metrics["runtime.rmws_per_op"] = ratio(static_cast<double>(steps.rmws), n);
  rep.metrics["workload.thread_share_min"] =
      ratio(static_cast<double>(min_ops) * static_cast<double>(recs.size()), n);
  rep.metrics["workload.warmup_s"] = warmup_s;
  rep.metrics["workload.measure_s"] = measure_s;
  rep.metrics["workload.lat_samples"] = static_cast<double>(samples);
}

// Closed-loop driver for the in-process workloads. A Fixture provides
//
//   explicit Fixture(const Options&)      set-up: stack, inputs
//   struct Local; Local(Fixture&, int)    per-worker state, built on
//                                         the worker thread
//   void op(Local&, uint64_t i, ThreadRecord&, bool measure)
//   void quiesce(Local&, ThreadRecord&)   complete anything in flight
//   void begin_window(Local&, bool on)    window opens / closes on
//                                         this worker (trace buffers)
//   Snapshot snapshot()                   layer counters, quiescent
//   void finish(const Snapshot&, const Snapshot&,
//               const std::vector<ThreadRecord>&, Report&)
//                                         checks + per-layer metrics
//
// and a worker's step counters are read through Local::ctx.
template <class Fixture>
class ClosedLoop {
 public:
  explicit ClosedLoop(const Options& opts) : opts_(opts) {}

  void run(Report& rep) {
    scm::Samples setups;
    for (int k = 0; k < kSetups; ++k) {
      const std::uint64_t t0 = now_ns();
      auto crew = std::make_unique<Crew>(opts_);
      crew->sync.arrive_and_wait();  // every worker built its Local
      setups.add(static_cast<double>(now_ns() - t0) * 1e-9);
      if (k + 1 < kSetups) continue;  // ~Crew dismisses the workers
      measure(*crew, setups, rep);
    }
  }

 private:
  // One set-up: the fixture plus its workers, parked at the first
  // barrier once their per-worker state exists. Destroying a crew that
  // never ran dismisses its workers.
  struct Crew {
    explicit Crew(const Options& opts)
        : fixture(opts), recs(kThreads), sync(kThreads + 1) {
      for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([this, t] { work(t); });
      }
    }
    Crew(const Crew&) = delete;
    Crew& operator=(const Crew&) = delete;
    ~Crew() {
      if (!started) {
        dismissed.store(true, std::memory_order_relaxed);
        sync.arrive_and_wait();
      }
      for (std::thread& w : workers) w.join();
    }

    void work(int tid) {
      typename Fixture::Local local(fixture, tid);
      ThreadRecord& rec = recs[static_cast<std::size_t>(tid)];
      sync.arrive_and_wait();  // set-up complete
      sync.arrive_and_wait();  // go, or dismissed
      if (dismissed.load(std::memory_order_relaxed)) return;

      ThreadRecord warm;
      std::uint64_t i = 0;
      while (!warm_stop.load(std::memory_order_relaxed)) {
        fixture.op(local, i++, warm, false);
      }
      fixture.quiesce(local, warm);
      warm_failed.fetch_add(warm.failed, std::memory_order_relaxed);
      sync.arrive_and_wait();  // warmup over, nothing in flight
      sync.arrive_and_wait();  // window open

      fixture.begin_window(local, true);
      const scm::StepCounters s0 = local.ctx.counters();
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        fixture.op(local, n++, rec, true);
        rec.publish(n);
      }
      fixture.quiesce(local, rec);
      fixture.begin_window(local, false);
      rec.publish(n);
      rec.ops = n;
      rec.steps = local.ctx.counters() - s0;
      sync.arrive_and_wait();  // window closed, nothing in flight
    }

    Fixture fixture;
    std::vector<ThreadRecord> recs;
    std::barrier<> sync;
    std::atomic<bool> dismissed{false};
    std::atomic<bool> warm_stop{false};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> warm_failed{0};
    bool started = false;
    std::vector<std::thread> workers;  // last: joins before the rest dies
  };

  void measure(Crew& crew, const scm::Samples& setups, Report& rep) {
    crew.started = true;
    const std::uint64_t w0 = now_ns();
    crew.sync.arrive_and_wait();  // go
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
    crew.warm_stop.store(true, std::memory_order_relaxed);
    crew.sync.arrive_and_wait();  // warmup over
    const double warmup_s = static_cast<double>(now_ns() - w0) * 1e-9;

    const auto before = crew.fixture.snapshot();
    std::vector<Mark> marks{mark(cpu_seconds(), crew.recs)};
    crew.sync.arrive_and_wait();  // window open
    const int slices = slice_count(opts_.seconds);
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 1; k <= slices; ++k) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::duration<double>(opts_.seconds * k / slices)));
      if (k < slices) marks.push_back(mark(cpu_seconds(), crew.recs));
    }
    crew.stop.store(true, std::memory_order_relaxed);
    crew.sync.arrive_and_wait();  // window closed
    marks.push_back(mark(cpu_seconds(), crew.recs));
    const auto after = crew.fixture.snapshot();

    const std::uint64_t warm_failed =
        crew.warm_failed.load(std::memory_order_relaxed);
    if (warm_failed != 0) {
      rep.violation("operations failed during warmup", warm_failed);
    }
    window_metrics(rep, setups, warmup_s, marks, crew.recs);
    crew.fixture.finish(before, after, crew.recs, rep);
  }

  const Options& opts_;
};

}  // namespace perfbench
