// A linearizable fetch&increment counter from the composable universal
// construction (Section 4 / Proposition 1).
//
// The counter is served by a three-stage Abstract chain:
//   stage 0: SplitConsensus    — registers only, commits when there is
//                                no interval contention;
//   stage 1: AbortableBakery   — registers only, commits absent step
//                                contention;
//   stage 2: CasConsensus      — hardware CAS, wait-free.
// The chain is assembled with StaticAbstractChain over the three
// concrete stage types, so every stage call is a direct call.
// The example runs a quiet phase (one thread) and a storm phase (all
// threads) and prints which stage served the commits in each — the
// speculation reverting to hardware exactly when contention appears.
//
//   $ ./examples/replicated_counter [threads]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "consensus/abortable_bakery.hpp"
#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "history/specs.hpp"
#include "runtime/platform.hpp"
#include "universal/composable_universal.hpp"
#include "universal/static_chain.hpp"

using namespace scm;

namespace {

constexpr std::size_t kCap = 96;

template <class Cons>
using Stage = ComposableUniversal<NativePlatform, CounterSpec, Cons, kCap>;

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 4;

  Stage<SplitConsensus<NativePlatform>> split(threads, kCap,
                                              "split/registers");
  Stage<AbortableBakery<NativePlatform>> bakery(threads, kCap,
                                                "bakery/registers");
  Stage<CasConsensus<NativePlatform>> cas(threads, kCap, "cas/hardware");
  StaticAbstractChain chain(threads, split, bakery, cas);

  // Quiet phase: thread 0 increments alone.
  {
    NativeContext ctx(0);
    for (int i = 0; i < 8; ++i) {
      const auto r = chain.perform(
          ctx, Request{static_cast<std::uint64_t>(i) + 1, 0,
                       CounterSpec::kFetchInc, 0});
      std::printf("quiet  : fetch&inc -> %lld  (stage %zu: %s)\n",
                  static_cast<long long>(r.response), r.stage,
                  chain.stage_name(r.stage));
    }
  }

  // Storm phase: everyone increments concurrently.
  std::vector<std::vector<Response>> got(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      NativeContext ctx(static_cast<ProcessId>(t));
      for (int i = 0; i < 4; ++i) {
        const auto id = 1000 + static_cast<std::uint64_t>(t) * 100 +
                        static_cast<std::uint64_t>(i);
        got[static_cast<std::size_t>(t)].push_back(
            chain
                .perform(ctx, Request{id, static_cast<ProcessId>(t),
                                      CounterSpec::kFetchInc, 0})
                .response);
      }
    });
  }
  for (auto& th : pool) th.join();

  std::printf("\nstorm  : per-thread responses (must all be distinct):\n");
  std::vector<Response> all;
  for (int t = 0; t < threads; ++t) {
    std::printf("  thread %d:", t);
    for (Response r : got[static_cast<std::size_t>(t)]) {
      std::printf(" %lld", static_cast<long long>(r));
      all.push_back(r);
    }
    std::printf("\n");
  }
  std::sort(all.begin(), all.end());
  const bool unique = std::adjacent_find(all.begin(), all.end()) == all.end();

  std::printf("\ncommits by stage (thread 0): quiet ran on stage 0 "
              "(registers); contention pushed ops to later stages.\n");
  for (std::size_t st = 0; st < chain.stage_count(); ++st) {
    std::uint64_t commits = 0;
    for (int t = 0; t < threads; ++t) {
      commits += chain.commits_by(static_cast<ProcessId>(t), st);
    }
    std::printf("  stage %zu (%-16s): %llu commits\n", st,
                chain.stage_name(st),
                static_cast<unsigned long long>(commits));
  }
  std::printf("\nall fetch&inc values distinct: %s\n",
              unique ? "yes" : "NO (bug!)");
  return unique ? 0 : 1;
}
