// Scenario tas.latency (E3) — native latency of the speculative TAS vs
// the hardware baseline (Introduction / Section 6: "combines
// lightweight components ... with a hardware TAS object at no cost").
//
// Claims regenerated (shape, not absolute numbers):
//  * single-threaded (the biased / owner regime), the speculative
//    object avoids the RMW of raw hardware TAS entirely;
//  * under multi-threaded contention the composed object tracks the
//    hardware object within a small constant factor (the wait-free
//    fallback), rather than degrading;
//  * RMWs per operation: ~0 uncontended, ≤1 contended for the
//    speculative object; always 1+ for hardware.
#include <memory>
#include <thread>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "runtime/platform.hpp"
#include "tas/long_lived_tas.hpp"
#include "workload/driver.hpp"

namespace {

using namespace scm;
using namespace scm::bench;

constexpr std::size_t kPool = 1 << 14;  // recycled rounds

Request tas_req(ProcessId p, std::uint64_t i) {
  return Request{(static_cast<std::uint64_t>(p) << 40) | (i + 1), p,
                 TasSpec::kTestAndSet, 0};
}

// Long-lived hardware-only TAS: same round structure, but every round
// is a bare hardware cell (what a non-speculative implementation does).
class HardwareLongLivedTas {
 public:
  HardwareLongLivedTas(int /*n*/, std::size_t rounds) : rounds_(rounds) {
    cells_ = std::make_unique<NativeTas[]>(rounds);
  }
  bool test_and_set(NativeContext& ctx) {
    const std::uint64_t r = round_.read(ctx);
    return cells_[r % rounds_].test_and_set(ctx) == 0;
  }
  void reset(NativeContext& ctx) {
    const std::uint64_t r = round_.read(ctx);
    cells_[(r + 1) % rounds_].reset();
    round_.write(ctx, r + 1);
  }

 private:
  std::size_t rounds_;
  std::unique_ptr<NativeTas[]> cells_;
  NativeRegister<std::uint64_t> round_{0};
};

// Win-reset workload: each op tries the TAS; the winner resets so the
// object is reused. Losers just continue (they will win eventually by
// round advancement).
ScenarioResult run(const BenchParams& params) {
  ScenarioResult result;

  std::vector<int> thread_counts{1};
  const unsigned hc = std::thread::hardware_concurrency();
  for (int t = 2; t <= params.threads; t *= 2) {
    if (hc != 0 && t > static_cast<int>(hc)) break;
    thread_counts.push_back(t);
  }
  // Honor a non-power-of-two --threads rather than silently dropping it.
  if (params.threads > 1 && thread_counts.back() != params.threads &&
      (hc == 0 || params.threads <= static_cast<int>(hc))) {
    thread_counts.push_back(params.threads);
  }

  double solo_spec_rmws = -1.0;
  double solo_hw_rmws = -1.0;
  for (int threads : thread_counts) {
    {
      LongLivedTas<> tas(threads, kPool, /*recycle=*/true);
      PhaseMetrics pm = measure_native(
          "speculative t=" + std::to_string(threads), threads, params.ops,
          [&](NativeContext& ctx, std::uint64_t i) {
            if (tas.test_and_set(ctx, tas_req(ctx.id(), i)).won()) {
              tas.reset(ctx);
            }
          });
      if (threads == 1) solo_spec_rmws = pm.rmws_per_op();
      result.phases.push_back(std::move(pm));
    }
    {
      HardwareLongLivedTas tas(threads, kPool);
      PhaseMetrics pm = measure_native(
          "hardware t=" + std::to_string(threads), threads, params.ops,
          [&](NativeContext& ctx, std::uint64_t) {
            if (tas.test_and_set(ctx)) tas.reset(ctx);
          });
      if (threads == 1) solo_hw_rmws = pm.rmws_per_op();
      result.phases.push_back(std::move(pm));
    }
  }

  result.claim = "single-owner speculative TAS performs ~0 RMWs/op "
                 "(register fast path) where hardware pays 1";
  result.claim_holds = solo_spec_rmws >= 0.0 && solo_spec_rmws < 0.01 &&
                       solo_hw_rmws >= 0.99;
  return result;
}

SCM_BENCH_REGISTER("tas.latency", "E3",
                   "native win/reset latency: speculative vs hardware "
                   "long-lived TAS",
                   Backend::kNative, run);

}  // namespace
