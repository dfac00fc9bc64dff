// Scenario lock.biased (E10) — the speculative TAS as a biased lock
// (Section 1, refs [9, 19]).
//
// Claims regenerated:
//  * while a single owner acquires/releases repeatedly, every
//    acquisition rides the register-only A1 fast path: ~0 RMWs per
//    acquire and latency competitive with an uncontended hardware CAS
//    lock (this is the "biased" regime — no revocation machinery);
//  * under handoff/contention the lock degrades gracefully to the
//    hardware path (≤1 RMW per round decision);
//  * against std::mutex and a plain test-and-set spinlock, the shape
//    holds: the biased lock's owner path avoids RMWs entirely, which
//    neither baseline can.
#include <mutex>
#include <thread>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "runtime/platform.hpp"
#include "tas/biased_lock.hpp"
#include "workload/driver.hpp"

namespace {

using namespace scm;
using namespace scm::bench;

constexpr std::size_t kPool = 1 << 14;

// Plain exchange-based spinlock baseline.
class TasSpinLock {
 public:
  void lock(NativeContext& ctx) {
    while (cell_.test_and_set(ctx) != 0) {
      while (cell_.read(ctx) != 0) {
      }
    }
  }
  void unlock(NativeContext&) { cell_.reset(); }

 private:
  NativeTas cell_;
};

// The compiler must not elide the critical section entirely.
inline void keep(void* p) { asm volatile("" : : "g"(p) : "memory"); }

ScenarioResult run(const BenchParams& params) {
  ScenarioResult result;

  // Single-owner (biased) regime.
  double biased_owner_rmws = 1.0;
  double spin_owner_rmws = 0.0;
  {
    BiasedLock<> lock(1, kPool, /*recycle=*/true);
    PhaseMetrics pm =
        measure_native("biased/owner", 1, params.ops,
                       [&](NativeContext& ctx, std::uint64_t) {
                         lock.lock(ctx);
                         keep(&lock);
                         lock.unlock(ctx);
                       });
    biased_owner_rmws = pm.rmws_per_op();
    result.phases.push_back(std::move(pm));
  }
  {
    TasSpinLock lock;
    PhaseMetrics pm =
        measure_native("spinlock/owner", 1, params.ops,
                       [&](NativeContext& ctx, std::uint64_t) {
                         lock.lock(ctx);
                         keep(&lock);
                         lock.unlock(ctx);
                       });
    spin_owner_rmws = pm.rmws_per_op();
    result.phases.push_back(std::move(pm));
  }
  {
    std::mutex mu;
    PhaseMetrics pm = measure_native("mutex/owner", 1, params.ops,
                                     [&](NativeContext& ctx, std::uint64_t) {
                                       (void)ctx;
                                       mu.lock();
                                       keep(&mu);
                                       mu.unlock();
                                     });
    // std::mutex synchronizes internally; at least one RMW per acquire.
    pm.extra["rmws_internal"] = 1.0;
    result.phases.push_back(std::move(pm));
  }

  // Contended handoff regime (only when the host can actually run the
  // requested threads in parallel).
  const unsigned hc = std::thread::hardware_concurrency();
  const int threads =
      hc != 0 ? std::min(params.threads, static_cast<int>(hc)) : params.threads;
  if (threads > 1) {
    BiasedLock<> lock(threads, kPool, /*recycle=*/true);
    result.phases.push_back(
        measure_native("biased/contended t=" + std::to_string(threads),
                       threads, params.ops,
                       [&](NativeContext& ctx, std::uint64_t) {
                         lock.lock(ctx);
                         keep(&lock);
                         lock.unlock(ctx);
                       }));
  }

  result.claim = "the biased lock's owner path performs ~0 RMWs per acquire "
                 "(registers only; spinlock/mutex pay >= 1)";
  result.claim_holds = biased_owner_rmws < 0.01 && spin_owner_rmws >= 0.99;
  return result;
}

SCM_BENCH_REGISTER("lock.biased", "E10",
                   "biased lock built on the speculative TAS vs spinlock and "
                   "std::mutex",
                   Backend::kNative, run);

}  // namespace
