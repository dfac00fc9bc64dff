// Leader election rounds on the long-lived resettable TAS.
//
// A classic use of test-and-set: in each round, every worker tries to
// become the leader; the leader does its work and resets the object,
// opening the next round (Algorithm 2's reset mechanism — Figure 1's
// back edge). The example prints, per worker, how many rounds it led
// and how often the speculative (register-only) module decided the
// election vs the hardware fallback.
//
//   $ ./examples/leader_election [workers] [rounds]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "runtime/platform.hpp"
#include "support/cacheline.hpp"
#include "tas/long_lived_tas.hpp"

using namespace scm;

int main(int argc, char** argv) {
  const int workers = argc > 1 ? std::atoi(argv[1]) : 4;
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 10'000;

  LongLivedTas<> election(workers, 1 << 14, /*recycle=*/true);
  std::atomic<int> rounds_led{0};

  struct alignas(kCacheLineSize) WorkerStats {
    int led = 0;
    std::uint64_t speculative_ops = 0;
    std::uint64_t hardware_ops = 0;
  };
  std::vector<WorkerStats> stats(static_cast<std::size_t>(workers));

  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      NativeContext ctx(static_cast<ProcessId>(w));
      WorkerStats& mine = stats[static_cast<std::size_t>(w)];
      std::uint64_t seq = 0;
      while (rounds_led.load(std::memory_order_acquire) < rounds) {
        const Request req{(static_cast<std::uint64_t>(w) << 40) | ++seq,
                          static_cast<ProcessId>(w), TasSpec::kTestAndSet, 0};
        const TasOutcome out = election.test_and_set(ctx, req);
        if (out.path == TasPath::kSpeculative) {
          ++mine.speculative_ops;
        } else {
          ++mine.hardware_ops;
        }
        if (out.won()) {
          // Leader's critical work would go here.
          ++mine.led;
          rounds_led.fetch_add(1, std::memory_order_acq_rel);
          election.reset(ctx);
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  std::printf("leader election: %d workers, %d rounds\n\n", workers, rounds);
  int total_led = 0;
  for (int w = 0; w < workers; ++w) {
    const WorkerStats& s = stats[static_cast<std::size_t>(w)];
    std::printf("  worker %d: led %6d rounds; ops: %llu speculative, %llu "
                "hardware\n",
                w, s.led,
                static_cast<unsigned long long>(s.speculative_ops),
                static_cast<unsigned long long>(s.hardware_ops));
    total_led += s.led;
  }
  std::printf("\nrounds decided: %d (>= requested %d)\n", total_led, rounds);
  std::printf("with one worker, re-run to see 100%% speculative decisions.\n");
  return total_led >= rounds ? 0 : 1;
}
