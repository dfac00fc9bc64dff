// Quickstart: the speculative test-and-set in five minutes.
//
// Builds the composed object of Figure 1 (obstruction-free register
// module A1 + wait-free hardware module A2) on the native platform,
// runs it from a handful of threads, and prints who won, which module
// served each thread, and the exact shared-memory step counts.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "runtime/platform.hpp"
#include "tas/speculative_tas.hpp"

using namespace scm;

int main() {
  constexpr int kThreads = 4;
  SpeculativeTas<> tas;

  // The composition's consensus number is 2: statically guaranteed.
  static_assert(SpeculativeTas<>::kConsensusNumber == 2);

  struct Result {
    TasOutcome outcome;
    StepCounters steps;
  };
  std::vector<Result> results(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      NativeContext ctx(static_cast<ProcessId>(t));
      const Request req{static_cast<std::uint64_t>(t) + 1,
                        static_cast<ProcessId>(t), TasSpec::kTestAndSet, 0};
      const TasOutcome out = tas.test_and_set(ctx, req);
      results[static_cast<std::size_t>(t)] = {out, ctx.counters()};
    });
  }
  for (auto& th : threads) th.join();

  std::printf("speculative test-and-set, %d threads:\n\n", kThreads);
  int winners = 0;
  for (int t = 0; t < kThreads; ++t) {
    const Result& r = results[static_cast<std::size_t>(t)];
    std::printf(
        "  thread %d: %-6s via %-11s  (%llu register steps, %llu RMWs)\n", t,
        r.outcome.won() ? "WINNER" : "loser",
        r.outcome.path == TasPath::kSpeculative ? "speculative" : "hardware",
        static_cast<unsigned long long>(r.steps.reads + r.steps.writes),
        static_cast<unsigned long long>(r.steps.rmws));
    if (r.outcome.won()) ++winners;
  }
  std::printf("\nexactly one winner: %s\n", winners == 1 ? "yes" : "NO (bug!)");

  // The same composition, written explicitly with the variadic pipeline
  // API: make_pipeline chains any number of modules, folds the abort→
  // init switch plumbing at compile time, and counts per-stage commits
  // and aborts.
  ObstructionFreeTas<> a1;
  WaitFreeTas a2;
  auto pipeline = make_pipeline(a1, a2);
  static_assert(decltype(pipeline)::kDepth == 2);
  static_assert(decltype(pipeline)::kConsensusNumber == 2);

  NativeContext solo(0);
  const Request req{1000, 0, TasSpec::kTestAndSet, 0};
  const ModuleResult r = pipeline.invoke(solo, req);
  std::printf(
      "\nexplicit make_pipeline(a1, a2), one solo op: %s, served by "
      "stage 0 (%llu commit, %llu aborts there)\n",
      r.response == TasSpec::kWinner ? "WINNER" : "loser",
      static_cast<unsigned long long>(pipeline.stats(0).commits),
      static_cast<unsigned long long>(pipeline.stats(0).aborts));

  std::printf(
      "run it again single-threaded and every operation stays on the\n"
      "register-only speculative path with zero RMWs.\n");
  return winners == 1 ? 0 : 1;
}
