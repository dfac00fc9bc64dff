// Native execution context: identifies the running process and counts
// its shared-memory steps inline (no synchronization — each context is
// owned by exactly one thread).
#pragma once

#include "runtime/ids.hpp"

namespace scm {

class NativeContext {
 public:
  NativeContext() = default;
  explicit NativeContext(ProcessId id) noexcept : id_(id) {}

  [[nodiscard]] ProcessId id() const noexcept { return id_; }

  [[nodiscard]] StepCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const StepCounters& counters() const noexcept {
    return counters_;
  }

  // Hooks invoked by shared-memory primitives before each access. The
  // simulated platform's context has the same interface but also parks
  // the calling thread until the scheduler grants the step.
  void on_read() noexcept { ++counters_.reads; }
  void on_write() noexcept { ++counters_.writes; }
  void on_rmw() noexcept { ++counters_.rmws; }

 private:
  ProcessId id_ = kInvalidProcess;
  StepCounters counters_{};
};

}  // namespace scm
