// Benchmark scenario interface.
//
// A scenario is one measurable workload (one former bench_* main): it
// receives the shared CLI parameters, runs exactly ONE repetition, and
// returns per-phase metrics. Warmup, repetition, and min/median/p99
// aggregation live in the runner (runner.hpp) so every scenario gets
// them for free.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/schedules.hpp"
#include "support/assert.hpp"
#include "workload/driver.hpp"

namespace scm::bench {

// Shared CLI parameters. `ops` is the per-thread operation count for
// native scenarios and the sweep/effort budget for simulator-backed
// scenarios (each scenario documents how it scales).
struct BenchParams {
  int threads = 4;
  std::uint64_t ops = 1024;
  int reps = 3;
  int warmup = 1;
  std::string schedule = "random";  // sequential | random | sticky:<s> | <seed>
  std::uint64_t seed = 42;
  bool pin = false;  // pin scm-worker-N threads to cores (--pin)

  // Scales a scenario-internal sweep count from the ops budget.
  [[nodiscard]] int sweeps(std::uint64_t divisor, int lo, int hi) const {
    const std::uint64_t raw = divisor == 0 ? ops : ops / divisor;
    return static_cast<int>(std::clamp<std::uint64_t>(
        raw, static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi)));
  }
};

// Parsed form of --schedule for simulator-backed scenarios. The policy
// governs the *contended* phases of a scenario; scenarios that contrast
// contention-free and contended execution always run their sequential
// phases sequentially.
struct SchedulePolicy {
  enum class Kind { kSequential, kRandom, kSticky };

  Kind kind = Kind::kRandom;
  std::uint64_t seed = 42;
  double stickiness = 0.5;

  // Returns nullopt on malformed input (unknown policy name, non-numeric
  // seed, stickiness outside [0, 1]) — never throws.
  static std::optional<SchedulePolicy> try_parse(const std::string& text,
                                                 std::uint64_t seed) {
    SchedulePolicy p;
    p.seed = seed;
    if (text == "sequential") {
      p.kind = Kind::kSequential;
    } else if (text.rfind("sticky:", 0) == 0) {
      const std::string num = text.substr(7);
      char* end = nullptr;
      p.kind = Kind::kSticky;
      p.stickiness = std::strtod(num.c_str(), &end);
      if (num.empty() || end != num.c_str() + num.size() ||
          !(p.stickiness >= 0.0 && p.stickiness <= 1.0)) {  // NaN-safe
        return std::nullopt;
      }
    } else if (text == "random" || text.empty()) {
      p.kind = Kind::kRandom;
    } else {
      // A bare number selects the random policy with that seed.
      char* end = nullptr;
      p.kind = Kind::kRandom;
      p.seed = std::strtoull(text.c_str(), &end, 10);
      if (end != text.c_str() + text.size()) return std::nullopt;
    }
    return p;
  }

  // For callers past CLI validation (scenarios): malformed input is a
  // programming error here.
  static SchedulePolicy parse(const std::string& text, std::uint64_t seed) {
    const auto p = try_parse(text, seed);
    SCM_CHECK_MSG(p.has_value(), "invalid --schedule policy");
    return *p;
  }

  // Builds the schedule for one simulated execution; `salt` keeps
  // repeated executions within a scenario distinct but deterministic.
  [[nodiscard]] std::unique_ptr<sim::Schedule> make(std::uint64_t salt) const {
    switch (kind) {
      case Kind::kSequential:
        return std::make_unique<sim::SequentialSchedule>();
      case Kind::kSticky:
        return std::make_unique<sim::StickyRandomSchedule>(mix(salt),
                                                           stickiness);
      case Kind::kRandom:
        break;
    }
    return std::make_unique<sim::RandomSchedule>(mix(salt));
  }

 private:
  [[nodiscard]] std::uint64_t mix(std::uint64_t salt) const {
    // splitmix64-style mix so consecutive salts decorrelate.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

// Metrics for one phase of one repetition. `seconds` is wall-clock time
// (native scenarios only; simulator-backed scenarios leave it 0 and the
// report carries ns_per_op = 0 for them — simulated time is counted in
// steps, not nanoseconds).
struct PhaseMetrics {
  std::string phase;
  std::uint64_t ops = 0;
  double seconds = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t rmws = 0;
  // Scenario-specific counters (abort rates, stage commits, ...).
  std::map<std::string, double> extra;

  [[nodiscard]] double ns_per_op() const {
    return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
  }
  [[nodiscard]] double steps_per_op() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(steps) / static_cast<double>(ops);
  }
  [[nodiscard]] double rmws_per_op() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(rmws) / static_cast<double>(ops);
  }
};

// Runs `body` on `threads` native threads for `ops` ops each (via the
// shared workload driver) and converts the result into one phase. The
// body type flows through to run_threads's template overload, so the
// per-op call is statically dispatched — scenario hot loops pay no
// std::function indirection.
template <class Body>
PhaseMetrics measure_native(std::string phase, int threads, std::uint64_t ops,
                            const Body& body) {
  const workload::DriverResult r = workload::run_threads(threads, ops, body);
  PhaseMetrics pm;
  pm.phase = std::move(phase);
  pm.ops = r.total_ops;
  pm.seconds = r.seconds;
  pm.steps = r.total_counters().total();
  pm.rmws = r.total_counters().rmws;
  return pm;
}

// Result of one repetition of a scenario. `claim_holds` must be a
// scale-robust check (a safety property that holds at any --ops), not a
// statistical observation; purely statistical observations belong in
// `extra` columns instead.
struct ScenarioResult {
  std::vector<PhaseMetrics> phases;
  std::string claim;
  bool claim_holds = true;
};

}  // namespace scm::bench
