// Simulator-side measurement helpers shared by the model-level benches:
// run a TAS/consensus workload under a given schedule and report step
// counts, abort rates and contention statistics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/schedules.hpp"
#include "sim/sim_platform.hpp"
#include "sim/simulator.hpp"

namespace scm::workload {

struct SimMetrics {
  std::uint64_t total_steps = 0;
  std::uint64_t total_rmws = 0;
  std::uint64_t ops = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t ops_with_step_contention = 0;
  // Lemma-6 violations: aborts observed in executions where *no*
  // operation experienced step contention (the lemma's guarantee is
  // execution-level — an individual abort may be triggered by a flag
  // set by some other, contended operation).
  std::uint64_t aborts_without_step_contention = 0;

  [[nodiscard]] double steps_per_op() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(total_steps) /
                          static_cast<double>(ops);
  }
  [[nodiscard]] double abort_rate() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(aborts) / static_cast<double>(ops);
  }
  [[nodiscard]] double contention_rate() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(ops_with_step_contention) /
                          static_cast<double>(ops);
  }

  SimMetrics& operator+=(const SimMetrics& o) {
    total_steps += o.total_steps;
    total_rmws += o.total_rmws;
    ops += o.ops;
    commits += o.commits;
    aborts += o.aborts;
    ops_with_step_contention += o.ops_with_step_contention;
    aborts_without_step_contention += o.aborts_without_step_contention;
    return *this;
  }
};

// Runs one simulated execution. `add_processes` installs the process
// bodies into the simulator; each body must wrap operations in
// begin_op/end_op with output 1 = commit, 0 = abort. Aggregates the
// operation records into SimMetrics.
inline SimMetrics run_sim(
    const std::function<void(sim::Simulator&)>& add_processes,
    sim::Schedule& schedule) {
  sim::Simulator s;
  add_processes(s);
  s.run(schedule);

  SimMetrics m;
  m.total_steps = s.steps_taken();
  for (int p = 0; p < s.process_count(); ++p) {
    m.total_rmws += s.counters(static_cast<ProcessId>(p)).rmws;
  }
  bool any_contention = false;
  std::uint64_t run_aborts = 0;
  for (const auto& op : s.ops()) {
    if (!op.complete) continue;
    ++m.ops;
    if (s.op_has_step_contention(op)) {
      any_contention = true;
      ++m.ops_with_step_contention;
    }
    if (op.output == 1) {
      ++m.commits;
    } else {
      ++m.aborts;
      ++run_aborts;
    }
  }
  if (!any_contention) m.aborts_without_step_contention += run_aborts;
  return m;
}

}  // namespace scm::workload
