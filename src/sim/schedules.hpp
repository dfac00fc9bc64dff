// Schedule policies for the deterministic simulator.
//
// Progress conditions in the paper quantify over execution classes:
//   - obstruction-freedom: progress in executions without step
//     contention (SequentialSchedule, SoloSchedule produce these);
//   - contention-freedom: progress absent interval contention;
//   - wait-freedom: progress under every schedule (RandomSchedule,
//     RoundRobinSchedule, adversarial phases, crash injection).
// Each policy here is deterministic given its constructor arguments, so
// every test failure reproduces from one printed seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "support/rng.hpp"
#include "sim/simulator.hpp"

namespace scm::sim {

// Runs the lowest-pid runnable process until it finishes, then the
// next: no two operations ever overlap (no interval contention, hence
// no step contention).
class SequentialSchedule final : public Schedule {
 public:
  ProcessId next(const View& view) override { return view.runnable.front(); }
};

// Runs one distinguished process to completion first (a "solo"
// execution for that process), then the rest sequentially.
class SoloSchedule final : public Schedule {
 public:
  explicit SoloSchedule(ProcessId hero) noexcept : hero_(hero) {}

  ProcessId next(const View& view) override {
    for (ProcessId pid : view.runnable) {
      if (pid == hero_) return pid;
    }
    return view.runnable.front();
  }

 private:
  ProcessId hero_;
};

// Cycles through runnable processes, `quantum` steps each: the classic
// maximal-contention interleaving.
class RoundRobinSchedule final : public Schedule {
 public:
  explicit RoundRobinSchedule(std::uint64_t quantum = 1) noexcept
      : quantum_(quantum == 0 ? 1 : quantum) {}

  ProcessId next(const View& view) override {
    if (granted_in_quantum_ >= quantum_ || !is_runnable(view, current_)) {
      current_ = successor(view, current_);
      granted_in_quantum_ = 0;
    }
    ++granted_in_quantum_;
    return current_;
  }

 private:
  static bool is_runnable(const View& view, ProcessId pid) {
    for (ProcessId p : view.runnable) {
      if (p == pid) return true;
    }
    return false;
  }

  static ProcessId successor(const View& view, ProcessId pid) {
    for (ProcessId p : view.runnable) {
      if (p > pid) return p;
    }
    return view.runnable.front();
  }

  std::uint64_t quantum_;
  std::uint64_t granted_in_quantum_ = 0;
  ProcessId current_ = -1;
};

// Uniformly random choice among runnable processes; deterministic in
// the seed.
class RandomSchedule final : public Schedule {
 public:
  explicit RandomSchedule(std::uint64_t seed) noexcept : rng_(seed) {}

  ProcessId next(const View& view) override {
    return view.runnable[rng_.below(view.runnable.size())];
  }

 private:
  Rng rng_;
};

// Random schedule that avoids switching processes mid-operation with
// probability `stickiness`: low stickiness => heavy step contention,
// stickiness 1.0 => (almost) sequential. Used to sweep contention.
class StickyRandomSchedule final : public Schedule {
 public:
  StickyRandomSchedule(std::uint64_t seed, double stickiness) noexcept
      : rng_(seed), stickiness_(stickiness) {}

  ProcessId next(const View& view) override {
    if (last_ >= 0 && rng_.chance(stickiness_)) {
      for (ProcessId p : view.runnable) {
        if (p == last_) return p;
      }
    }
    last_ = view.runnable[rng_.below(view.runnable.size())];
    return last_;
  }

 private:
  Rng rng_;
  double stickiness_;
  ProcessId last_ = -1;
};

// Kill-point predicate: asked whenever `pid` is about to be granted
// (or sits blocked in await()); true crashes it right there. It sees
// the Simulator mid-run, so a test can name a kill point by the
// victim's own counted steps (sim.counters(pid).total() == k) or by
// shared state. It must be a pure function of what it reads: the
// explorer replays runs and relies on the same decision each time.
using CrashPredicate =
    std::function<bool(ProcessId pid, const Simulator& sim)>;

// Replays an explicit sequence of choices, expressed as *indices into
// the runnable set* (canonical form used by the exhaustive explorer).
// Past the end of the prefix it falls back to the first runnable
// process. Records the runnable-set size at every choice point. An
// optional CrashPredicate turns chosen grants into crashes; crashes are
// not choice points, so they leave the branching record unchanged.
class ReplaySchedule final : public Schedule {
 public:
  explicit ReplaySchedule(std::vector<std::size_t> prefix,
                          CrashPredicate crash = nullptr)
      : prefix_(std::move(prefix)), crash_(std::move(crash)) {}

  ProcessId next(const View& view) override {
    std::size_t index = 0;
    if (position_ < prefix_.size()) {
      index = prefix_[position_];
    }
    branching_.push_back(view.runnable.size());
    ++position_;
    if (index >= view.runnable.size()) index = view.runnable.size() - 1;
    return view.runnable[index];
  }

  bool should_crash(ProcessId pid, const View& view) override {
    return crash_ && crash_(pid, *view.sim);
  }
  bool should_crash_blocked(ProcessId pid, const View& view) override {
    return should_crash(pid, view);
  }

  // Runnable-set sizes seen at each choice point of the last run.
  [[nodiscard]] const std::vector<std::size_t>& branching() const noexcept {
    return branching_;
  }

 private:
  std::vector<std::size_t> prefix_;
  std::vector<std::size_t> branching_;
  std::size_t position_ = 0;
  CrashPredicate crash_;
};

// Wraps another schedule and crashes chosen processes at chosen step
// indices (pairs of pid -> step index at which its next grant becomes a
// crash). A start grant never crashes, so index 0 kills a process at
// its first counted step, after its body has begun.
class CrashSchedule final : public Schedule {
 public:
  CrashSchedule(Schedule& inner, std::map<ProcessId, std::uint64_t> crash_at)
      : inner_(&inner), crash_at_(std::move(crash_at)) {}

  ProcessId next(const View& view) override { return inner_->next(view); }

  bool should_crash(ProcessId pid, const View& view) override {
    auto it = crash_at_.find(pid);
    return it != crash_at_.end() && view.sim->started(pid) &&
           view.step_index >= it->second;
  }

 private:
  Schedule* inner_;
  std::map<ProcessId, std::uint64_t> crash_at_;
};

// Random crash injection: each grant crashes the picked process with
// probability p, except that at least `survivors` processes are spared
// (the model allows at most n-1 crash faults).
class RandomCrashSchedule final : public Schedule {
 public:
  RandomCrashSchedule(Schedule& inner, std::uint64_t seed, double p,
                      int survivors = 1)
      : inner_(&inner), rng_(seed), p_(p), survivors_(survivors) {}

  ProcessId next(const View& view) override { return inner_->next(view); }

  bool should_crash(ProcessId pid, const View& view) override {
    const auto alive = static_cast<int>(view.runnable.size());
    if (alive <= survivors_) return false;
    if (crashed_.count(pid) != 0) return false;
    if (rng_.chance(p_)) {
      crashed_.insert(pid);
      return true;
    }
    return false;
  }

 private:
  Schedule* inner_;
  Rng rng_;
  double p_;
  int survivors_;
  std::set<ProcessId> crashed_;
};

}  // namespace scm::sim
