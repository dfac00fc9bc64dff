// Scenario compose.async (E14) — open-loop asynchronous submission
// over the composition stack. Flat combining amortizes the chain walk,
// but a CLOSED loop over it has every thread block until its
// operation commits, so latency and throughput are one number seen
// from two sides (window 1 below is that closed loop). This scenario
// detaches them with the submit/complete surface (core/async.hpp):
// each thread keeps a bounded window of in-flight tickets
// (workload::run_open_loop) and the report separates submission
// throughput (ns/op over the wall clock) from completion latency
// (per-op submit→completion samples, summarized as
// lat_{mean,p50,p99}_ns extra columns), sweeping
//
//   window in {1, 4, 16}  x  combining in {off, on}
//     x  shards in {1, 4}  x  threads in {1, --threads}
//
// at a fixed depth-4 pipeline (the depth axis is E11's). combining=off
// cells complete inline (ready tickets — the window axis degenerates,
// so only window=1 runs) and give the synchronous baseline;
// combining=on cells publish into per-shard Combining wrappers, whose
// slots already are one-op futures, so a wider window lets one
// combiner pass serve more of a single thread's operations.
//
// Self-checks (scale-robust, gating): submit().wait() is
// result-identical to invoke() for a solo caller on every layer —
// Pipeline, Sharded, Combining, Sharded<Combining> — and the
// poll/try_result path agrees too; detached submissions all execute
// and run their callbacks after drain(); every measured op commits its
// full-walk hop count (response == depth-1) on exactly one shard, the
// per-shard sink totals sum to the offered load, and the latency
// sample count equals the op count.
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "core/async.hpp"
#include "core/combining.hpp"
#include "core/pipeline.hpp"
#include "core/sharding.hpp"
#include "runtime/platform.hpp"
#include "support/parking.hpp"
#include "support/stats.hpp"

namespace {

using namespace scm;
using namespace scm::bench;

// Process CPU time (user + system, all threads) — the denominator of
// the cpu_ns_per_op extra. Wall-clock throughput can look fine while
// oversubscribed spin-waits burn whole cores; this is the number the
// CI oversubscription job puts a ceiling on, and the number futex
// parking is meant to shrink. 0 where the platform cannot say.
double cpu_seconds_now() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
#else
  return 0.0;
#endif
}

constexpr std::size_t kCombineSlots = 16;
constexpr std::size_t kDepth = 4;

// Aborts after one counted register read, incrementing the hop count —
// the composition plumbing under test (same shape as E11's relay).
class AsyncRelay {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    (void)gate_.read(ctx);
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }

 private:
  NativeRegister<int> gate_{0};
};

// Commits the inherited hop count after one fetch_add; the counter is
// the per-shard accounting the self-check sums.
class RmwSink {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    (void)count_.fetch_add(ctx);
    return ModuleResult::commit(init.value_or(0));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

// Probe sink: commits the fetch_add ticket itself so response streams
// expose execution order — the equivalence probes compare them against
// a per-op reference instance.
class TicketSink {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    const auto t = count_.fetch_add(ctx);
    return ModuleResult::commit(static_cast<Response>(
        init.value_or(0) * 1000 + static_cast<SwitchValue>(t)));
  }

 private:
  NativeCounter count_;
};

template <class Sink>
using PipeOf = FastPipeline<AsyncRelay, AsyncRelay, AsyncRelay, Sink>;

Request req_of(ProcessId p, std::uint64_t i) {
  return Request{(static_cast<std::uint64_t>(p) << 40) | (i + 1), p, 0, 0};
}

// One open-loop sweep cell over `Cell` (any layer with submit()).
// `sink_total` reads the per-shard sink counters back for accounting.
template <class Cell, class SinkTotal>
void run_cell(std::string name, int threads, std::uint64_t ops,
              std::size_t window, Cell& cell, const SinkTotal& sink_total,
              ScenarioResult& result, std::uint64_t& mismatches,
              std::uint64_t& accounting_gaps) {
  std::atomic<std::uint64_t> bad{0};
  const double cpu0 = cpu_seconds_now();
  const workload::OpenLoopResult r = workload::run_open_loop(
      threads, ops, window,
      [&](NativeContext& ctx, std::uint64_t i) {
        return cell.submit(ctx, req_of(ctx.id(), i));
      },
      [&](NativeContext&, const ModuleResult& res) {
        if (!res.committed() ||
            res.response != static_cast<Response>(kDepth - 1)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      });
  const double cpu1 = cpu_seconds_now();
  mismatches += bad.load(std::memory_order_relaxed);
  if (sink_total() != r.total_ops) ++accounting_gaps;
  // Completion accounting: the open-loop driver harvested exactly one
  // latency sample per offered op.
  if (r.latency_ns.size() != r.total_ops) ++accounting_gaps;

  PhaseMetrics pm;
  pm.phase = std::move(name);
  pm.ops = r.total_ops;
  pm.seconds = r.seconds;
  pm.steps = r.total_counters().total();
  pm.rmws = r.total_counters().rmws;
  Samples lat;
  for (const double v : r.latency_ns) lat.add(v);
  pm.extra["window"] = static_cast<double>(window);
  pm.extra["lat_mean_ns"] = lat.mean();
  pm.extra["lat_p50_ns"] = lat.percentile(50.0);
  pm.extra["lat_p99_ns"] = lat.percentile(99.0);
  pm.extra["cpu_ns_per_op"] =
      r.total_ops == 0 ? 0.0
                       : (cpu1 - cpu0) * 1e9 /
                             static_cast<double>(r.total_ops);
  result.phases.push_back(std::move(pm));
}

// Probe 1: submit().wait() — and the poll()/try_result() path — is
// result-identical to invoke() for a solo caller, on a bare pipeline,
// a sharded pipeline, a combining wrapper, and their nesting. Solo,
// Combining's submit takes the uncontended fast path, so the tickets
// are born ready and the comparison covers the fast path's inline
// completion (the publication path is pinned under real threads by
// async_test).
template <class Layer>
bool solo_submit_equivalence(Layer& layer) {
  PipeOf<TicketSink> reference;
  NativeContext ctx(0);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const ModuleResult want = reference.invoke(ctx, req_of(0, i));
    ModuleResult got;
    if (i % 2 == 0) {
      got = layer.submit(ctx, req_of(0, i)).wait();
    } else {
      auto t = layer.submit(ctx, req_of(0, i));
      while (!t.poll()) {
      }
      const auto r = t.try_result();
      if (!r.has_value()) return false;
      got = *r;
    }
    if (!got.committed() || got.response != want.response) return false;
  }
  return true;
}

bool submit_equivalence_probes() {
  PipeOf<TicketSink> pipe;
  Sharded<PipeOf<TicketSink>, 4, ByThread> sharded;
  Combining<PipeOf<TicketSink>, 4> combined;
  Sharded<Combining<PipeOf<TicketSink>, 4>, 4, ByThread> nested;
  return solo_submit_equivalence(pipe) && solo_submit_equivalence(sharded) &&
         solo_submit_equivalence(combined) && solo_submit_equivalence(nested);
}

// Probe 2: fire-and-forget submission. Every detached op executes, its
// combiner-run (or inline) callback fires exactly once, and drain()
// leaves no publication behind.
bool detached_probe() {
  Combining<PipeOf<RmwSink>, 4> combined;
  NativeContext ctx(0);
  constexpr std::uint64_t kOps = 96;
  std::uint64_t callbacks = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    combined.submit_detached(
        ctx, req_of(0, i), std::nullopt,
        [](void* user, const ModuleResult& r) {
          if (r.committed()) ++*static_cast<std::uint64_t*>(user);
        },
        &callbacks);
  }
  combined.drain(ctx);
  return callbacks == kOps &&
         combined.object().stage<kDepth - 1>().count() == kOps;
}

ScenarioResult run(const BenchParams& params) {
  ScenarioResult result;
  std::uint64_t mismatches = 0;
  std::uint64_t accounting_gaps = 0;
  std::uint64_t fastpath_syscall_leaks = 0;

  std::vector<int> thread_points{1};
  if (params.threads > 1) thread_points.push_back(params.threads);

  const auto sweep_shards = [&]<std::size_t S>() {
    for (const int t : thread_points) {
      {
        // Synchronous baseline: inline completion, window degenerate.
        Sharded<PipeOf<RmwSink>, S, ByThread> cell;
        const auto sink_total = [&] {
          std::uint64_t total = 0;
          for (std::size_t s = 0; s < S; ++s) {
            total += cell.shard(s).template stage<kDepth - 1>().count();
          }
          return total;
        };
        run_cell("sync w=1 shards=" + std::to_string(S) +
                     " t=" + std::to_string(t),
                 t, params.ops, 1, cell, sink_total, result, mismatches,
                 accounting_gaps);
        result.phases.back().extra["combining"] = 0.0;
        result.phases.back().extra["shards"] = static_cast<double>(S);
      }
      for (const std::size_t window : {std::size_t{1}, std::size_t{4},
                                       std::size_t{16}}) {
        Sharded<Combining<PipeOf<RmwSink>, kCombineSlots>, S, ByThread> cell;
        const auto sink_total = [&] {
          std::uint64_t total = 0;
          for (std::size_t s = 0; s < S; ++s) {
            total += cell.shard(s)
                         .object()
                         .template stage<kDepth - 1>()
                         .count();
          }
          return total;
        };
        run_cell("async w=" + std::to_string(window) +
                     " shards=" + std::to_string(S) +
                     " t=" + std::to_string(t),
                 t, params.ops, window, cell, sink_total, result, mismatches,
                 accounting_gaps);
        std::uint64_t rounds = 0, batched = 0, fastpath = 0;
        ParkStats parked;
        for (std::size_t s = 0; s < S; ++s) {
          rounds += cell.shard(s).combine_rounds();
          batched += cell.shard(s).combined_ops();
          fastpath += cell.shard(s).direct_ops();
          const ParkStats ps = cell.shard(s).park_stats();
          parked.parks += ps.parks;
          parked.wakes += ps.wakes;
          parked.spurious_wakes += ps.spurious_wakes;
          parked.futex_syscalls += ps.futex_syscalls;
        }
        PhaseMetrics& pm = result.phases.back();
        pm.extra["combining"] = 1.0;
        pm.extra["shards"] = static_cast<double>(S);
        pm.extra["ops_per_combine"] =
            rounds == 0
                ? 0.0
                : static_cast<double>(batched) / static_cast<double>(rounds);
        pm.extra["fastpath_share"] =
            pm.ops == 0 ? 0.0
                        : static_cast<double>(fastpath) /
                              static_cast<double>(pm.ops);
        // Parking telemetry (support/parking.hpp): rung-3 escalations
        // and the kernel traffic they cost, summed over shards.
        pm.extra["parks"] = static_cast<double>(parked.parks);
        pm.extra["wakes"] = static_cast<double>(parked.wakes);
        pm.extra["spurious_wakes"] =
            static_cast<double>(parked.spurious_wakes);
        pm.extra["futex_syscalls"] = static_cast<double>(parked.futex_syscalls);
        // Fast-path purity gate: a cell whose every op took the
        // uncontended direct path never published, never contended the
        // combiner lock, and so had nothing to park on — any futex
        // syscall here means the parking rung leaked into the fast
        // path. This is the scale-robust form of the "uncontended fast
        // path untouched" acceptance criterion.
        if (pm.ops != 0 && fastpath == pm.ops &&
            parked.futex_syscalls != 0) {
          ++fastpath_syscall_leaks;
        }
      }
    }
  };
  sweep_shards.template operator()<1>();
  sweep_shards.template operator()<4>();

  const bool probes_ok = submit_equivalence_probes() && detached_probe();

  result.claim =
      "submit().wait() and submit()+poll()/try_result() are "
      "result-identical to invoke() for a solo caller on every layer; "
      "detached submissions all execute and run their callbacks after "
      "drain(); every open-loop op commits its full-walk hop count on "
      "exactly one shard, per-shard sink totals sum to the offered "
      "load, completion-latency samples account for every op, and "
      "all-fast-path cells issue zero futex syscalls";
  result.claim_holds = mismatches == 0 && accounting_gaps == 0 &&
                       fastpath_syscall_leaks == 0 && probes_ok;
  return result;
}

SCM_BENCH_REGISTER("compose.async", "E14",
                   "open-loop async submission: window {1,4,16} x "
                   "combining on/off x shards {1,4} x threads, completion "
                   "latency vs submission throughput",
                   Backend::kNative, run);

}  // namespace
