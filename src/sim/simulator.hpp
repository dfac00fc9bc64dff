// Deterministic shared-memory simulator.
//
// The paper's model is an asynchronous shared memory with an
// adversarial scheduler: complexity is counted in shared-memory steps
// and progress conditions quantify over *which interleavings occur*
// (step contention, interval contention). Real threads cannot control
// interleavings, so tests and model-level measurements run algorithms
// on this simulator instead:
//
//  * every process runs on its own thread, but a token-passing
//    controller lets exactly one process execute at a time;
//  * every counted shared-memory access (a step accessor of the
//    context, runtime/context.hpp) is a scheduling point: the process
//    parks and the Schedule policy picks who takes the next step;
//  * the controller can crash a process at any scheduling point
//    (n-1 crash faults, as in the model);
//  * all events (operation invocations/responses and steps) get global
//    sequence numbers, from which the simulator derives step-contention
//    and interval-contention verdicts per operation.
//
// Determinism: given a deterministic Schedule, the full execution —
// every register value, every step, every trace — is reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "runtime/context.hpp"
#include "runtime/ids.hpp"

namespace scm::sim {

class Simulator;

// Thrown into a process body when the scheduler crashes it. Algorithm
// code must be exception-neutral (it is: no catch blocks), so the crash
// unwinds to the simulator's thread wrapper, leaving shared state
// exactly as the model prescribes: half-finished.
struct Crashed {};

// Execution context handed to a simulated process body. It has
// NativeContext's interface (id, counters and the step accessors of
// runtime/context.hpp), so every algorithm, templated only on its
// context, runs the same base objects here and natively. Its grant
// parks the process until the scheduler grants the step, and throws
// Crashed when the scheduler kills it there.
class SimContext : public StepAccessors<SimContext> {
 public:
  static constexpr bool kNoexceptSteps = false;

  // Marker consumed by scm::wait_until (runtime/wait.hpp): this context
  // supports conditional parking, so blocking layers (the combining
  // wrappers' wait loops) park in await() instead of spinning — which
  // is what makes the slot protocol explorable by sim::explore. The
  // same marker makes Combining::submit complete inline and compiles
  // Adaptive's wall-clock monitor out.
  static constexpr bool kCanAwait = true;

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] StepCounters& counters() noexcept { return counters_; }

  // Conditional scheduling point: parks this process until `pred()`
  // holds. The controller re-evaluates predicates between grants (all
  // other processes quiescent, so a predicate may read shared atomics
  // without taking steps), keeps the process out of the runnable set
  // while false, and wakes it with a kWake grant once true — at which
  // point the predicate is guaranteed still true, since nothing runs
  // between the controller's check and the wake. This is the sim-side
  // replacement for a native spin loop: the explored tree stays FINITE
  // because a waiting process contributes no interleavings while its
  // condition is false. The schedule's should_crash_blocked() is asked
  // about a blocked waiter on every round, so a process can die parked
  // here (Crashed unwinds out of await). If every live process is
  // waiting on a false predicate and none is crashed, the run aborts
  // loudly — a simulated lost-wakeup deadlock.
  void await(std::function<bool()> pred);

  // Operation markers. Not shared-memory steps; they stamp the global
  // event sequence so the simulator can compute per-operation step
  // contention and interval contention, and so linearizability checks
  // get a real-time order.
  void begin_op(std::int64_t tag = 0);
  void end_op(std::int64_t output = 0);

 private:
  friend class Simulator;
  friend class StepAccessors<SimContext>;
  SimContext(Simulator& sim, ProcessId id) noexcept : sim_(&sim), id_(id) {}
  void grant(Access kind);

  Simulator* sim_;
  ProcessId id_;
  StepCounters counters_{};
};

// One operation as observed by the simulator.
struct OpRecord {
  ProcessId pid = kInvalidProcess;
  std::int64_t tag = 0;     // caller-chosen (e.g. request id)
  std::int64_t output = 0;  // caller-reported at end_op
  std::uint64_t invoke_event = 0;
  std::uint64_t response_event = 0;
  bool complete = false;  // false => the process crashed inside the op
};

// One granted shared-memory step.
struct StepRecord {
  std::uint64_t event = 0;  // global event sequence number
  ProcessId pid = kInvalidProcess;
  Access kind = Access::kRead;
};

// Scheduling policy. `next` picks the process to take the next step
// among the currently parked (runnable) ones; `should_crash` may kill
// the picked process at that point instead. `should_crash_blocked` is
// asked, each round, about every process blocked in await() on a false
// predicate (a pid absent from view.runnable): true kills it there.
// Only schedules that opt in override it, so seeded crash schedules
// never see a blocked process.
class Schedule {
 public:
  virtual ~Schedule() = default;

  struct View {
    std::span<const ProcessId> runnable;  // ascending pid order
    std::uint64_t step_index = 0;         // steps granted so far
    const Simulator* sim = nullptr;
  };

  virtual ProcessId next(const View& view) = 0;
  virtual bool should_crash(ProcessId /*pid*/, const View& /*view*/) {
    return false;
  }
  virtual bool should_crash_blocked(ProcessId /*pid*/,
                                    const View& /*view*/) {
    return false;
  }
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t max_steps = 1'000'000);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Registers a process; bodies start running only inside run().
  ProcessId add_process(std::function<void(SimContext&)> body);

  [[nodiscard]] int process_count() const noexcept {
    return static_cast<int>(procs_.size());
  }

  // Runs all processes to completion under `schedule`. Returns the
  // number of shared-memory steps granted. May be called once.
  std::uint64_t run(Schedule& schedule);

  // ---- post-run queries -------------------------------------------------

  [[nodiscard]] std::uint64_t steps_taken() const noexcept { return steps_; }
  [[nodiscard]] bool hit_step_limit() const noexcept { return hit_limit_; }
  [[nodiscard]] bool crashed(ProcessId pid) const;
  [[nodiscard]] const StepCounters& counters(ProcessId pid) const;
  [[nodiscard]] const std::vector<OpRecord>& ops() const noexcept {
    return op_records_;
  }
  [[nodiscard]] const std::vector<StepRecord>& steps() const noexcept {
    return step_log_;
  }

  // True if any *other* process took a shared-memory step between the
  // operation's invocation and its response (step contention, [6]).
  [[nodiscard]] bool op_has_step_contention(const OpRecord& op) const;

  // Number of distinct other operations overlapping this one in real
  // time (interval contention, [2]).
  [[nodiscard]] int op_interval_contention(const OpRecord& op) const;

  // True while `pid` is between begin_op and end_op. Valid during run()
  // for Schedule implementations.
  [[nodiscard]] bool in_operation(ProcessId pid) const;

 private:
  friend class SimContext;

  enum class State : std::uint8_t {
    kUnstarted,  // thread not launched yet
    kParked,     // waiting at a scheduling point (or at startup)
    kWaiting,    // parked in await(); runnable only while its pred holds
    kGranted,    // scheduler granted one step; thread is waking
    kRunning,    // executing user code exclusively
    kDone,       // body returned
    kCrashed     // body unwound via Crashed
  };

  struct Proc {
    std::function<void(SimContext&)> body;
    std::unique_ptr<SimContext> ctx;
    std::thread thread;
    State state = State::kUnstarted;
    std::function<bool()> wait_pred;  // valid while state == kWaiting
    bool crash_pending = false;
    bool started = false;  // has consumed its startup grant
    bool in_op = false;
    std::size_t open_op_index = 0;  // index into op_records_ while in_op
  };

  void thread_main(ProcessId pid);
  void take_step(ProcessId pid, Access kind);
  void await_cond(ProcessId pid, std::function<bool()> pred);
  void record_begin_op(ProcessId pid, std::int64_t tag);
  void record_end_op(ProcessId pid, std::int64_t output);

  // Waits (holding lk) until no process is kGranted/kRunning.
  void await_quiescent(std::unique_lock<std::mutex>& lk);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<StepRecord> step_log_;
  std::vector<OpRecord> op_records_;
  std::uint64_t event_seq_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t max_steps_;
  bool running_ = false;
  bool hit_limit_ = false;
};

}  // namespace scm::sim
