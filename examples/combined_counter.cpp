// Flat-combining demo: a shared ticket counter behind a composed
// pipeline, wrapped in Combining<> (core/combining.hpp) so one elected
// combiner executes everyone's pending operations.
//
// Every thread publishes its request into a cacheline-padded slot and
// either waits to be served or — when the combiner lock is free, or
// frees within a short spin — becomes the combiner and drains ALL
// pending slots, running each one through the pipeline's per-op chain
// walk. The printout shows how many published ops a combiner pass
// served, and the per-stage stats account for every op: each op
// served, directly or by a combiner, bumps one counter per stage it
// visits.
//
//   $ ./examples/combined_counter [threads]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "core/combining.hpp"
#include "core/pipeline.hpp"
#include "runtime/platform.hpp"
#include "workload/driver.hpp"

using namespace scm;

namespace {

constexpr std::uint64_t kOpsPerThread = 2048;

// One unit of composition plumbing: read a gate register, abort with an
// incremented hop count (as in the compose.* scenarios).
class Relay {
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

// The contended object: commits a unique, monotonically assigned
// ticket (fetch&inc semantics).
class TicketCounter {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    return ModuleResult::commit(
        static_cast<Response>(count_.fetch_add(ctx)));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

// Depth-3 composed object: two relays in front of the counter, with
// the stats-enabled Pipeline's per-stage counters.
using TicketPipe = Pipeline<Relay, Relay, TicketCounter>;

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t total =
      static_cast<std::uint64_t>(threads) * kOpsPerThread;

  Combining<TicketPipe, 16> counter;
  static_assert(decltype(counter)::kConsensusNumber ==
                kConsensusNumberFetchAdd);
  static_assert(decltype(counter)::kDepth == 3);

  // Every op must draw a distinct ticket in [0, total): mark them off.
  std::vector<std::atomic<std::uint8_t>> seen(total);
  std::atomic<std::uint64_t> bad{0};

  const auto r = workload::run_threads(
      threads, kOpsPerThread, [&](NativeContext& ctx, std::uint64_t i) {
        const Request m{(static_cast<std::uint64_t>(ctx.id()) << 40) |
                            (i + 1),
                        ctx.id(), 0, 0};
        const ModuleResult res = counter.invoke(ctx, m);
        const auto ticket = static_cast<std::uint64_t>(res.response);
        if (!res.committed() || ticket >= total ||
            seen[ticket].exchange(1, std::memory_order_relaxed) != 0) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      });

  const std::uint64_t rounds = counter.combine_rounds();
  const std::uint64_t batched = counter.combined_ops();
  std::printf("combined counter: %d threads x %llu ops -> %.1f ns/op\n\n",
              threads, static_cast<unsigned long long>(kOpsPerThread),
              r.ns_per_op());
  std::printf("fast-path ops:     %llu (lock won, no publication)\n",
              static_cast<unsigned long long>(counter.direct_ops()));
  std::printf("combiner passes:   %llu serving %llu published ops "
              "(%.2f ops per pass)\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(batched),
              rounds == 0 ? 0.0
                          : static_cast<double>(batched) /
                                static_cast<double>(rounds));

  // Per-stage accounting: both relays abort every op into the next
  // stage, the counter commits all of them.
  bool stats_ok = true;
  for (std::size_t st = 0; st < 3; ++st) {
    const PipelineStageStats s = counter.stats(st);
    std::printf("stage %zu:           %llu commits, %llu aborts\n", st,
                static_cast<unsigned long long>(s.commits),
                static_cast<unsigned long long>(s.aborts));
    stats_ok = stats_ok && (st == 2 ? s.commits == total && s.aborts == 0
                                    : s.aborts == total && s.commits == 0);
  }

  const bool tickets_ok = bad.load() == 0 &&
                          counter.object().stage<2>().count() == total;
  std::printf("\nall %llu tickets distinct and in range: %s\n",
              static_cast<unsigned long long>(total),
              tickets_ok ? "yes" : "NO (bug!)");
  std::printf("per-stage stats account for every op:  %s\n",
              stats_ok ? "yes" : "NO (bug!)");
  return tickets_ok && stats_ok ? 0 : 1;
}
