// Sharded composition demo: a keyed "lock table" built by replicating
// the paper's composed TAS (A1 in front of the hardware A2, as a
// Pipeline) across cacheline-isolated shards with ByKeyHash routing
// (core/sharding.hpp), driven by uniform and zipf-skewed key streams
// (workload/keyed.hpp).
//
// Every thread tries to acquire the lock for a stream of keys; a key's
// requests always land on the same shard, so each shard elects exactly
// one winner among all requests routed to it — the per-shard object
// keeps the composed TAS's guarantees while the table as a whole
// spreads contention. The load histograms show the skew axis: uniform
// keys spread across all shards, zipf(0.99) keys pile onto the hot
// ones.
//
//   $ ./examples/sharded_lock_table [threads]
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/pipeline.hpp"
#include "core/sharding.hpp"
#include "history/specs.hpp"
#include "runtime/platform.hpp"
#include "support/rng.hpp"
#include "tas/a1_module.hpp"
#include "tas/a2_module.hpp"
#include "workload/driver.hpp"
#include "workload/keyed.hpp"

using namespace scm;

namespace {

constexpr std::size_t kShards = 4;
constexpr std::uint64_t kKeys = 64;
constexpr std::uint64_t kOpsPerThread = 32;

using LockPipe = Pipeline<ObstructionFreeTas<>, WaitFreeTas>;

Request lock_req(ProcessId p, std::uint64_t i, std::uint64_t key) {
  return Request{(static_cast<std::uint64_t>(p) << 40) | (i + 1), p,
                 TasSpec::kTestAndSet, static_cast<std::int64_t>(key)};
}

void print_histogram(const char* label, const std::array<std::uint64_t,
                                                         kShards>& load,
                     std::uint64_t total) {
  std::printf("%s", label);
  for (std::size_t s = 0; s < kShards; ++s) {
    std::printf("  shard %zu: %5.1f%%", s,
                100.0 * static_cast<double>(load[s]) /
                    static_cast<double>(total));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 4;

  // One composed TAS per shard; ByKeyHash pins each key to one shard.
  Sharded<LockPipe, kShards, ByKeyHash> locks;
  static_assert(decltype(locks)::kConsensusNumber == kConsensusNumberTas);
  static_assert(decltype(locks)::kDepth == 2);

  std::array<std::atomic<std::uint64_t>, kShards> winners{};
  std::array<std::atomic<std::uint64_t>, kShards> touched{};

  const workload::ZipfianKeys stream(kKeys, 0.99);
  std::vector<Padded<Rng>> rngs;
  rngs.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    rngs.emplace_back(Rng(0xC0FFEEULL + static_cast<std::uint64_t>(t) * 977));
  }
  const auto r = workload::run_threads(
      threads, kOpsPerThread, [&](NativeContext& ctx, std::uint64_t i) {
        Rng& rng = rngs[static_cast<std::size_t>(ctx.id())].value;
        const std::uint64_t key = stream(rng);
        const Request m = lock_req(ctx.id(), i, key);
        // Route and run on that shard explicitly, so the attribution
        // below names the shard that served the op.
        const std::size_t shard = locks.route(ctx, m);
        touched[shard].fetch_add(1, std::memory_order_relaxed);
        const ModuleResult res = locks.invoke_at(shard, ctx, m);
        if (res.committed() && res.response == TasSpec::kWinner) {
          winners[shard].fetch_add(1, std::memory_order_relaxed);
        }
      });

  std::printf("lock table: %zu shards, %llu keys, %d threads, %llu ops\n\n",
              kShards, static_cast<unsigned long long>(kKeys), threads,
              static_cast<unsigned long long>(r.total_ops));

  bool one_winner_per_touched_shard = true;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::uint64_t w = winners[s].load(std::memory_order_relaxed);
    const std::uint64_t t = touched[s].load(std::memory_order_relaxed);
    std::printf("shard %zu: %4llu requests -> %llu winner(s)\n", s,
                static_cast<unsigned long long>(t),
                static_cast<unsigned long long>(w));
    if ((t > 0 && w != 1) || (t == 0 && w != 0)) {
      one_winner_per_touched_shard = false;
    }
  }

  // Merged statistics: the per-shard PipelineCounters summed by the
  // combinator. Stage 0 is the register-only A1, stage 1 the hardware
  // fallback; their invocation totals account for every operation.
  const PipelineStageStats s0 = locks.stats(0);
  const PipelineStageStats s1 = locks.stats(1);
  std::printf("\nmerged stats: A1 %llu commits / %llu aborts; "
              "A2 %llu commits (A1 invocations == total ops: %s)\n",
              static_cast<unsigned long long>(s0.commits),
              static_cast<unsigned long long>(s0.aborts),
              static_cast<unsigned long long>(s1.commits),
              s0.invocations() == r.total_ops ? "yes" : "NO");

  // The contention axis: shard load under uniform vs zipf key draws.
  std::array<std::uint64_t, kShards> uniform_load{};
  std::array<std::uint64_t, kShards> zipf_load{};
  const workload::UniformKeys uniform(kKeys);
  Rng ur(1), zr(1);
  NativeContext probe(0);
  constexpr std::uint64_t kDraws = 4096;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    ++uniform_load[locks.route(probe, lock_req(0, i, uniform(ur)))];
    ++zipf_load[locks.route(probe, lock_req(0, i, stream(zr)))];
  }
  std::printf("\n");
  print_histogram("uniform keys:", uniform_load, kDraws);
  print_histogram("zipf(0.99): ", zipf_load, kDraws);

  std::printf("\none winner per touched shard: %s\n",
              one_winner_per_touched_shard ? "yes" : "NO (bug!)");
  return one_winner_per_touched_shard &&
                 s0.invocations() == r.total_ops
             ? 0
             : 1;
}
