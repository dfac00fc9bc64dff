// Scenario compose.batched (E13) — flat combining over composed
// pipelines. compose.depth measures the per-op cost of the chain walk
// and compose.sharded spreads it over replicas; this scenario
// amortizes it: Combining<Pipe, kSlots> (core/combining.hpp) elects
// one combiner to drain a publication array of pending requests
// through the pipeline's batch path (one stage-major walk per batch),
// sweeping
//
//   combining in {off, on}  x  shards in {1, 4}
//     x  threads in {1, --threads}  x  depth in {1, 4}.
//
// combining=off, shards=1 is the paper's fully-contended baseline
// (every thread pays its own full chain walk and bounces the sink's
// cache line); combining=on hands the walk to one combiner per shard,
// so per-op composition overhead becomes per-batch overhead. The
// shards axis shows the two combinators composing: Sharded<Combining<
// Pipe>> is the roadmap's "per-shard batch queue".
//
// Each cell's pipeline is (d-1) aborting relays in front of an RMW
// sink that commits the inherited hop count, as in E11/E12, so the
// scenario validates end to end that the BATCH path preserves the
// switch plumbing (response == d-1 always) and the accounting
// (per-shard sink totals sum to the offered ops). Two unmeasured
// probes pin the semantic claims at any --ops: a solo stream through
// Combining is result-identical to the same stream invoked per-op
// (fetch-add order included), and merged per-stage stats forwarded
// through Combining account for every probe op. Speed comparisons
// (combined vs the uncombined baseline) are reported as extra columns
// — they are statistical observations, not scale-robust claims.
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "core/batch.hpp"
#include "core/combining.hpp"
#include "core/pipeline.hpp"
#include "core/sharding.hpp"
#include "runtime/platform.hpp"

namespace {

using namespace scm;
using namespace scm::bench;

// Publication slots per combining wrapper; threads beyond this share
// slots (handled by the claim protocol, at reduced batching benefit).
constexpr std::size_t kCombineSlots = 16;

// Aborts after one counted register read, incrementing the hop count —
// the composition plumbing under test (same shape as E11/E12's relay).
class BatchRelay {
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

// Commits the inherited hop count after one fetch_add — the contended
// cache line the combiner keeps local. The counter doubles as the
// per-shard commit tally the accounting check sums.
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

// Probe sink: commits the fetch_add ticket itself, so a stream's
// responses expose the ORDER operations reached the sink — the
// equivalence probe compares them against the per-op reference.
class TicketSink {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    const auto ticket = count_.fetch_add(ctx);
    return ModuleResult::commit(static_cast<Response>(
        init.value_or(0) * 1000 + static_cast<SwitchValue>(ticket)));
  }

 private:
  NativeCounter count_;
};

template <std::size_t D>
struct PipeOf {
  template <std::size_t>
  using RelayAt = BatchRelay;

  template <std::size_t... I>
  static FastPipeline<RelayAt<I>..., RmwSink> fast_type(
      std::index_sequence<I...>);
  using type = decltype(fast_type(std::make_index_sequence<D - 1>{}));

  template <std::size_t... I>
  static Pipeline<RelayAt<I>..., RmwSink> stats_type_fn(
      std::index_sequence<I...>);
  using stats_type =
      decltype(stats_type_fn(std::make_index_sequence<D - 1>{}));

  template <std::size_t... I>
  static FastPipeline<RelayAt<I>..., TicketSink> ticket_type_fn(
      std::index_sequence<I...>);
  using ticket_type =
      decltype(ticket_type_fn(std::make_index_sequence<D - 1>{}));
};

Request req_of(ProcessId p, std::uint64_t i) {
  return Request{(static_cast<std::uint64_t>(p) << 40) | (i + 1), p, 0, 0};
}

// One sweep cell. Returns the cell's ns/op so the driver can attach
// baseline-relative extra columns to the combined cells.
template <std::size_t D, std::size_t S, bool Combined>
double run_cell(const BenchParams& params, int threads,
                ScenarioResult& result, std::uint64_t& mismatches,
                std::uint64_t& accounting_gaps) {
  using Pipe = typename PipeOf<D>::type;
  using Cell = std::conditional_t<
      Combined, Sharded<Combining<Pipe, kCombineSlots>, S, ByThread>,
      Sharded<Pipe, S, ByThread>>;
  Cell cell;
  static_assert(Cell::kConsensusNumber >= kConsensusNumberFetchAdd);

  std::atomic<std::uint64_t> bad{0};
  std::string name = std::string(Combined ? "combined" : "direct") +
                     " d=" + std::to_string(D) + " shards=" +
                     std::to_string(S) + " t=" + std::to_string(threads);
  PhaseMetrics pm = measure_native(
      std::move(name), threads, params.ops,
      [&](NativeContext& ctx, std::uint64_t i) {
        const ModuleResult r = cell.invoke(ctx, req_of(ctx.id(), i));
        if (!r.committed() || r.response != static_cast<Response>(D - 1)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      });
  mismatches += bad.load(std::memory_order_relaxed);

  // Accounting: every offered op reached exactly one shard's sink.
  std::uint64_t sink_total = 0;
  std::uint64_t rounds = 0;
  std::uint64_t batched = 0;
  std::uint64_t fastpath = 0;
  for (std::size_t s = 0; s < S; ++s) {
    if constexpr (Combined) {
      sink_total +=
          cell.shard(s).object().template stage<D - 1>().count();
      rounds += cell.shard(s).combine_rounds();
      batched += cell.shard(s).combined_ops();
      fastpath += cell.shard(s).direct_ops();
    } else {
      sink_total += cell.shard(s).template stage<D - 1>().count();
    }
  }
  if (sink_total != pm.ops) ++accounting_gaps;

  pm.extra["depth"] = static_cast<double>(D);
  pm.extra["shards"] = static_cast<double>(S);
  pm.extra["combining"] = Combined ? 1.0 : 0.0;
  if constexpr (Combined) {
    // Achieved amortization: ops per combiner pass over the published
    // ops, and the share of ops that skipped publication entirely
    // (lock free — 1.0 is the uncontended regime).
    pm.extra["ops_per_combine"] =
        rounds == 0 ? 0.0
                    : static_cast<double>(batched) /
                          static_cast<double>(rounds);
    pm.extra["fastpath_share"] =
        pm.ops == 0 ? 0.0
                    : static_cast<double>(fastpath) /
                          static_cast<double>(pm.ops);
  }
  const double ns = pm.ns_per_op();
  result.phases.push_back(std::move(pm));
  return ns;
}

// Unmeasured probe 1a: a solo request stream through Combining is
// result-identical to the same stream invoked per-op on an identical
// pipeline — ticket order included. Solo, the combiner lock is always
// free, so every op must take the direct fast path.
template <std::size_t D>
bool solo_equivalence_probe() {
  using Ticket = typename PipeOf<D>::ticket_type;
  constexpr std::uint64_t kProbeOps = 96;
  NativeContext ctx(0);

  Ticket direct;
  Combining<Ticket, 4> combined;
  for (std::uint64_t i = 0; i < kProbeOps; ++i) {
    const ModuleResult a = direct.invoke(ctx, req_of(0, i));
    const ModuleResult b = combined.invoke(ctx, req_of(0, i));
    if (!a.committed() || !b.committed() || a.response != b.response) {
      return false;
    }
  }
  return combined.direct_ops() == kProbeOps &&
         combined.combine_rounds() == 0;
}

// Unmeasured probe 1b: the PUBLICATION path produces the same results
// as per-op invocation. Driven single-threaded through the batch
// machinery directly: publish each request into an OpSlot batch and
// drain it through the pipeline's batch path, exactly what a combiner
// does with a full publication list.
template <std::size_t D>
bool batch_equivalence_probe() {
  using Ticket = typename PipeOf<D>::ticket_type;
  constexpr std::uint64_t kProbeOps = 96;
  constexpr std::size_t kBatch = 8;
  NativeContext ctx(0);

  Ticket direct;
  Ticket batched;
  std::array<OpSlot, kBatch> slots;
  for (std::uint64_t base = 0; base < kProbeOps; base += kBatch) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      slots[j] = OpSlot{req_of(0, base + j), std::nullopt, {}, false};
    }
    run_batch(batched, ctx, std::span<OpSlot>(slots));
    for (std::size_t j = 0; j < kBatch; ++j) {
      const ModuleResult a = direct.invoke(ctx, slots[j].request);
      if (!slots[j].done || !slots[j].result.committed() ||
          slots[j].result.response != a.response) {
        return false;
      }
    }
  }
  return true;
}

// Unmeasured probe 2: per-stage stats forwarded through Combining (and
// merged across shards by Sharded) account for every probe op, and the
// batch path's bulk counter updates equal the per-op tallies.
template <std::size_t D, std::size_t S>
bool stats_probe() {
  using StatsPipe = typename PipeOf<D>::stats_type;
  Sharded<Combining<StatsPipe, 4>, S, ByThread> probe;
  constexpr std::uint64_t kProbeOps = 64;
  NativeContext ctx(0);
  for (std::uint64_t i = 0; i < kProbeOps; ++i) {
    (void)probe.invoke(ctx, req_of(0, i));
  }
  const PipelineStageStats sink = probe.stats(D - 1);
  bool ok = sink.commits == kProbeOps && sink.aborts == 0;
  for (std::size_t st = 0; st + 1 < D; ++st) {
    const PipelineStageStats relay = probe.stats(st);
    ok = ok && relay.aborts == kProbeOps && relay.commits == 0;
  }
  return ok;
}

ScenarioResult run(const BenchParams& params) {
  ScenarioResult result;
  std::uint64_t mismatches = 0;
  std::uint64_t accounting_gaps = 0;

  std::vector<int> thread_points{1};
  if (params.threads > 1) thread_points.push_back(params.threads);

  const auto sweep_depth = [&]<std::size_t D>() {
    for (const int t : thread_points) {
      // The uncombined single-instance cell is the baseline every
      // combined cell at the same depth/threads is compared against.
      const double base_ns =
          run_cell<D, 1, false>(params, t, result, mismatches,
                                accounting_gaps);
      (void)run_cell<D, 4, false>(params, t, result, mismatches,
                                  accounting_gaps);
      for (const bool four_shards : {false, true}) {
        const double ns =
            four_shards ? run_cell<D, 4, true>(params, t, result, mismatches,
                                               accounting_gaps)
                        : run_cell<D, 1, true>(params, t, result, mismatches,
                                               accounting_gaps);
        result.phases.back().extra["speedup_vs_direct_1shard"] =
            ns == 0.0 ? 0.0 : base_ns / ns;
      }
    }
  };
  sweep_depth.template operator()<1>();
  sweep_depth.template operator()<4>();

  const bool probes_ok = solo_equivalence_probe<1>() &&
                         solo_equivalence_probe<4>() &&
                         batch_equivalence_probe<1>() &&
                         batch_equivalence_probe<4>() && stats_probe<4, 1>() &&
                         stats_probe<4, 4>();

  result.claim =
      "every batched op commits its full-walk hop count on exactly one "
      "shard; per-shard sink totals sum to the offered load; both the "
      "fast path and the publication/batch path are result-identical "
      "to per-op invocation; stats forwarded through Combining account "
      "for every probe op";
  result.claim_holds = mismatches == 0 && accounting_gaps == 0 && probes_ok;
  return result;
}

SCM_BENCH_REGISTER("compose.batched", "E13",
                   "flat-combining surface: combining on/off x shards "
                   "{1,4} x threads x depth {1,4} over batched pipelines",
                   Backend::kNative, run);

}  // namespace
