// Exhaustive schedule exploration (bounded model checking).
//
// For small process counts and short algorithms (A1 takes at most ~8
// shared-memory steps) the full tree of interleavings is enumerable:
// we re-run the simulation once per leaf, replaying a canonical prefix
// of runnable-set indices and extending it depth-first. Every safety
// theorem in the paper is checked over *all* interleavings of 2-3
// processes this way, complementing the randomized sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/schedules.hpp"
#include "sim/simulator.hpp"

namespace scm::sim {

struct ExploreStats {
  std::uint64_t runs = 0;
  bool exhausted = true;  // false if the run limit stopped the search
};

// make_sim:  builds a fresh Simulator with its processes (and any shared
//            state) for one execution; returns ownership.
// check:     invoked after each complete run with the finished simulator;
//            should assert/record whatever property is under test.
// crash:     kill points (see CrashPredicate): every explored
//            interleaving crashes whoever the predicate names, where it
//            names them, so crash recovery is checked over the whole
//            tree of the code as shipped.
// max_runs:  safety valve on the number of explored interleavings.
inline ExploreStats explore_all_schedules(
    const std::function<std::unique_ptr<Simulator>()>& make_sim,
    const std::function<void(Simulator&)>& check,
    const CrashPredicate& crash, std::uint64_t max_runs = 250'000) {
  ExploreStats stats;
  std::vector<std::size_t> prefix;  // canonical choice sequence
  for (;;) {
    auto sim = make_sim();
    ReplaySchedule schedule(prefix, crash);
    sim->run(schedule);
    ++stats.runs;
    check(*sim);

    // Compute the next prefix in depth-first order: find the deepest
    // choice point with an untried alternative.
    const std::vector<std::size_t>& branching = schedule.branching();
    if (branching.empty()) return stats;  // no scheduling choices at all
    std::vector<std::size_t> taken(branching.size(), 0);
    for (std::size_t i = 0; i < branching.size(); ++i) {
      taken[i] = i < prefix.size() ? prefix[i] : 0;
      if (taken[i] >= branching[i]) taken[i] = branching[i] - 1;
    }
    std::size_t depth = branching.size();
    while (depth > 0) {
      --depth;
      if (taken[depth] + 1 < branching[depth]) {
        prefix.assign(taken.begin(), taken.begin() + static_cast<long>(depth));
        prefix.push_back(taken[depth] + 1);
        break;
      }
      if (depth == 0) return stats;  // tree exhausted
    }
    if (stats.runs >= max_runs) {
      stats.exhausted = false;
      return stats;
    }
  }
}

// Crash-free exploration: every process runs to completion.
inline ExploreStats explore_all_schedules(
    const std::function<std::unique_ptr<Simulator>()>& make_sim,
    const std::function<void(Simulator&)>& check,
    std::uint64_t max_runs = 250'000) {
  return explore_all_schedules(make_sim, check, CrashPredicate{}, max_runs);
}

}  // namespace scm::sim
