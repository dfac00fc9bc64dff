#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "support/assert.hpp"

namespace scm::sim {
namespace {

// A stuck simulation is a bug in a schedule or an algorithm driver; we
// fail loudly instead of hanging the test suite.
constexpr auto kWaitTimeout = std::chrono::seconds(60);

template <class Pred>
void checked_wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lk,
                  Pred pred, const char* who) {
  if (!cv.wait_for(lk, kWaitTimeout, pred)) {
    std::fprintf(stderr, "sim::Simulator deadlock: %s timed out\n", who);
    std::abort();
  }
}

}  // namespace

Simulator::Simulator(std::uint64_t max_steps) : max_steps_(max_steps) {}

Simulator::~Simulator() {
  for (auto& p : procs_) {
    if (p->thread.joinable()) p->thread.join();
  }
}

ProcessId Simulator::add_process(std::function<void(SimContext&)> body) {
  SCM_CHECK_MSG(!running_, "add_process after run()");
  const auto pid = static_cast<ProcessId>(procs_.size());
  auto proc = std::make_unique<Proc>();
  proc->body = std::move(body);
  proc->ctx = std::unique_ptr<SimContext>(new SimContext(*this, pid));
  procs_.push_back(std::move(proc));
  return pid;
}

void Simulator::thread_main(ProcessId pid) {
  Proc& me = *procs_[pid];
  {
    // Park at startup: a process may run local code (begin_op, etc.)
    // before its first shared-memory access, and that code must execute
    // under the scheduler's exclusivity as well.
    std::unique_lock lk(mu_);
    me.state = State::kParked;
    cv_.notify_all();
    checked_wait(cv_, lk, [&] { return me.state == State::kGranted; },
                 "process awaiting startup grant");
    me.state = State::kRunning;
    me.started = true;
    if (me.crash_pending) {
      me.state = State::kCrashed;
      cv_.notify_all();
      return;
    }
  }
  try {
    me.body(*me.ctx);
    std::unique_lock lk(mu_);
    me.state = State::kDone;
    cv_.notify_all();
  } catch (const Crashed&) {
    std::unique_lock lk(mu_);
    if (me.in_op) {
      op_records_[me.open_op_index].response_event = ++event_seq_;
      op_records_[me.open_op_index].complete = false;
      me.in_op = false;
    }
    me.state = State::kCrashed;
    cv_.notify_all();
  }
}

void Simulator::take_step(ProcessId pid, Access kind) {
  Proc& me = *procs_[pid];
  std::unique_lock lk(mu_);
  me.state = State::kParked;
  cv_.notify_all();
  checked_wait(cv_, lk, [&] { return me.state == State::kGranted; },
               "process awaiting step grant");
  me.state = State::kRunning;
  if (me.crash_pending) {
    lk.unlock();
    throw Crashed{};
  }
  step_log_.push_back(StepRecord{++event_seq_, pid, kind});
  ++steps_;
}

void Simulator::await_cond(ProcessId pid, std::function<bool()> pred) {
  Proc& me = *procs_[pid];
  std::unique_lock lk(mu_);
  me.wait_pred = std::move(pred);
  me.state = State::kWaiting;
  cv_.notify_all();
  checked_wait(cv_, lk, [&] { return me.state == State::kGranted; },
               "process awaiting condition");
  me.state = State::kRunning;
  me.wait_pred = nullptr;
  if (me.crash_pending) {
    lk.unlock();
    throw Crashed{};
  }
  // The wake is a scheduling event the replayed tree must contain
  // (otherwise two runs with different wake orders would replay
  // identically), but not a shared-memory step: no counter bump.
  step_log_.push_back(StepRecord{++event_seq_, pid, Access::kWake});
  ++steps_;
}

void SimContext::grant(Access kind) { sim_->take_step(id_, kind); }

void SimContext::await(std::function<bool()> pred) {
  sim_->await_cond(id_, std::move(pred));
}

void SimContext::begin_op(std::int64_t tag) { sim_->record_begin_op(id_, tag); }

void SimContext::end_op(std::int64_t output) {
  sim_->record_end_op(id_, output);
}

void Simulator::record_begin_op(ProcessId pid, std::int64_t tag) {
  Proc& me = *procs_[pid];
  std::unique_lock lk(mu_);
  SCM_CHECK_MSG(!me.in_op, "nested begin_op");
  OpRecord rec;
  rec.pid = pid;
  rec.tag = tag;
  rec.invoke_event = ++event_seq_;
  me.in_op = true;
  me.open_op_index = op_records_.size();
  op_records_.push_back(rec);
}

void Simulator::record_end_op(ProcessId pid, std::int64_t output) {
  Proc& me = *procs_[pid];
  std::unique_lock lk(mu_);
  SCM_CHECK_MSG(me.in_op, "end_op without begin_op");
  OpRecord& rec = op_records_[me.open_op_index];
  rec.response_event = ++event_seq_;
  rec.output = output;
  rec.complete = true;
  me.in_op = false;
}

void Simulator::await_quiescent(std::unique_lock<std::mutex>& lk) {
  checked_wait(
      cv_, lk,
      [&] {
        return std::all_of(procs_.begin(), procs_.end(), [](const auto& p) {
          return p->state == State::kParked || p->state == State::kWaiting ||
                 p->state == State::kDone || p->state == State::kCrashed;
        });
      },
      "controller awaiting quiescence");
}

std::uint64_t Simulator::run(Schedule& schedule) {
  SCM_CHECK_MSG(!running_, "run() called twice");
  running_ = true;
  for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
    procs_[pid]->thread =
        std::thread(&Simulator::thread_main, this, static_cast<ProcessId>(pid));
  }

  std::vector<ProcessId> runnable;
  std::vector<ProcessId> blocked;
  std::unique_lock lk(mu_);
  for (;;) {
    await_quiescent(lk);

    // Runnable = parked at a step, or waiting with a satisfied
    // predicate. Predicates run on the controller thread with every
    // process quiescent, so they may peek shared state freely.
    runnable.clear();
    blocked.clear();
    for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
      Proc& p = *procs_[pid];
      if (p.state == State::kParked) {
        runnable.push_back(static_cast<ProcessId>(pid));
      } else if (p.state == State::kWaiting) {
        (p.wait_pred() ? runnable : blocked)
            .push_back(static_cast<ProcessId>(pid));
      }
    }

    // A process blocked on a false predicate is never picked, but it can
    // still die where it waits: should_crash_blocked is asked about it on
    // every round, and a crash grant unwinds it out of await(). Without
    // this, "died waiting, never served" would be unreachable — a waiter
    // only runs again once whatever it waits for has happened.
    bool crashed_blocked = false;
    const Schedule::View view{std::span<const ProcessId>(runnable), steps_,
                              this};
    for (ProcessId pid : blocked) {
      if (schedule.should_crash_blocked(pid, view)) {
        procs_[pid]->crash_pending = true;
        procs_[pid]->state = State::kGranted;
        crashed_blocked = true;
      }
    }
    if (crashed_blocked) {
      cv_.notify_all();
      continue;
    }

    if (runnable.empty()) {
      // Every live process waiting on a false predicate is a simulated
      // deadlock (lost wakeup / wedged combiner). Loud failure: this is
      // exactly the class of protocol bug the explorer exists to catch.
      SCM_CHECK_MSG(blocked.empty(),
                    "simulated deadlock: every live process is parked in "
                    "await() on a false predicate");
      break;  // everyone done or crashed
    }

    if (steps_ >= max_steps_) {
      // Out of budget: crash every remaining process so the run ends in
      // a well-defined state; tests check hit_step_limit(). Waiting
      // processes are woken too (even with false predicates) so their
      // threads unwind instead of hanging the join below.
      hit_limit_ = true;
      for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
        Proc& p = *procs_[pid];
        if (p.state == State::kParked || p.state == State::kWaiting) {
          p.crash_pending = true;
          p.state = State::kGranted;
        }
      }
      cv_.notify_all();
      continue;
    }

    const ProcessId pick = schedule.next(view);
    SCM_CHECK_MSG(pick >= 0 && static_cast<std::size_t>(pick) < procs_.size() &&
                      (procs_[pick]->state == State::kParked ||
                       procs_[pick]->state == State::kWaiting),
                  "schedule picked a non-runnable process");
    if (schedule.should_crash(pick, view)) {
      procs_[pick]->crash_pending = true;
    }
    procs_[pick]->state = State::kGranted;
    cv_.notify_all();
  }
  lk.unlock();

  for (auto& p : procs_) {
    if (p->thread.joinable()) p->thread.join();
  }
  return steps_;
}

bool Simulator::crashed(ProcessId pid) const {
  std::unique_lock lk(mu_);
  return procs_.at(pid)->state == State::kCrashed;
}

const StepCounters& Simulator::counters(ProcessId pid) const {
  return procs_.at(pid)->ctx->counters();
}

bool Simulator::op_has_step_contention(const OpRecord& op) const {
  for (const StepRecord& s : step_log_) {
    if (s.event <= op.invoke_event) continue;
    if (s.event >= op.response_event) break;  // step_log_ is event-ordered
    if (s.pid != op.pid) return true;
  }
  return false;
}

int Simulator::op_interval_contention(const OpRecord& op) const {
  int overlapping = 0;
  for (const OpRecord& other : op_records_) {
    if (&other == &op || other.pid == op.pid) continue;
    const std::uint64_t other_end =
        other.response_event == 0 ? ~std::uint64_t{0} : other.response_event;
    const std::uint64_t op_end =
        op.response_event == 0 ? ~std::uint64_t{0} : op.response_event;
    if (other.invoke_event < op_end && op.invoke_event < other_end) {
      ++overlapping;
    }
  }
  return overlapping;
}

bool Simulator::in_operation(ProcessId pid) const {
  // Called from Schedule::next on the controller thread, which already
  // holds mu_ indirectly via run(); state reads here are safe because
  // all other threads are parked.
  return procs_.at(pid)->in_op;
}

}  // namespace scm::sim
