// Execution contexts and the one step convention.
//
// A context identifies the running process and carries its
// StepCounters. Every counted shared access goes through one of the
// context's accessors below, which takes the step and then makes the
// access; no other code takes a step. Taking a step is the context's
// grant — nothing natively, a scheduling point under the simulator
// (sim::SimContext), which may crash the process there — followed by
// the bump of the step's StepCounters field.
//
//   load, store, exchange,   one std::atomic access, the step before it;
//   fetch_add, cas           the caller names the memory order(s)
//   store(a, next, mo)       a store of next(current value) to a word
//                            only the caller writes: the step, then a
//                            relaxed load and the store
//   read(payload)            a plain record payload whose word's
//                            acquire orders it: the step, then the
//                            payload handed back to be read
//   late_cas                 the one exception: a CAS whose step comes
//                            AFTER it, and only when it wins; a losing
//                            CAS takes no step and counts nothing
//
// A plain payload write needs no accessor of its own: the word's
// release store that publishes it is the counted step.
//
// late_cas is the convention of the combining executors' election gate,
// slot claim and dead-owner reclaim (core/slot_protocol.hpp,
// shm/shm_combining.hpp): the explorers' pinned interleaving trees were
// built on it.
//
// A step is noexcept exactly when the context's step is:
// Ctx::kNoexceptSteps. A simulated step throws sim::Crashed when the
// scheduler kills the process there, and the crash must unwind to the
// simulator's thread wrapper (through noexcept it would std::terminate
// the whole binary); a native step is a counter bump. Every accessor,
// and every base object method that takes one step
// (runtime/primitives.hpp, runtime/registers.hpp), is
// noexcept(Ctx::kNoexceptSteps).
#pragma once

#include <atomic>
#include <concepts>
#include <type_traits>

#include "runtime/ids.hpp"

namespace scm {

// The accessor set, written once for every context. Ctx derives from
// StepAccessors<Ctx> and provides counters(), kNoexceptSteps and a
// grant(Access) this class may call. The memory orders are the
// caller's. Each accessor is forced inline: a native one is the counter
// bump and the atomic instruction, and GCC's early inliner, which
// leaves a forwarding function of this size out of line, would
// otherwise shift the inlining budget of every caller's unit.
template <class Ctx>
class StepAccessors {
 public:
  template <class T>
  [[gnu::always_inline, nodiscard]] T load(const std::atomic<T>& a,
                                           std::memory_order mo)
      noexcept(Ctx::kNoexceptSteps) {
    step<Access::kRead>();
    return a.load(mo);  // scm-lint: default-order-ok
  }

  template <class T>
  [[gnu::always_inline]] void store(std::atomic<T>& a,
                                    std::type_identity_t<T> v,
                                    std::memory_order mo)
      noexcept(Ctx::kNoexceptSteps) {
    step<Access::kWrite>();
    a.store(v, mo);  // scm-lint: default-order-ok
  }

  // A store of `next(current value)` to a word only the caller writes:
  // the step, then a relaxed load and the store (no RMW).
  template <class T, std::invocable<T> Next>
  [[gnu::always_inline]] void store(std::atomic<T>& a, Next next,
                                    std::memory_order mo)
      noexcept(Ctx::kNoexceptSteps) {
    step<Access::kWrite>();
    const T value = next(a.load(std::memory_order_relaxed));
    a.store(value, mo);  // scm-lint: default-order-ok
  }

  template <class T>
  [[gnu::always_inline]] T exchange(std::atomic<T>& a,
                                    std::type_identity_t<T> v,
                                    std::memory_order mo)
      noexcept(Ctx::kNoexceptSteps) {
    step<Access::kRmw>();
    return a.exchange(v, mo);  // scm-lint: default-order-ok
  }

  template <class T>
  [[gnu::always_inline]] T fetch_add(std::atomic<T>& a,
                                     std::type_identity_t<T> d,
                                     std::memory_order mo)
      noexcept(Ctx::kNoexceptSteps) {
    step<Access::kRmw>();
    return a.fetch_add(d, mo);  // scm-lint: default-order-ok
  }

  // compare_exchange_strong: on failure `expected` holds the current
  // value.
  template <class T>
  [[gnu::always_inline]] bool cas(std::atomic<T>& a, T& expected,
                                  std::type_identity_t<T> desired,
                                  std::memory_order success,
                                  std::memory_order failure)
      noexcept(Ctx::kNoexceptSteps) {
    step<Access::kRmw>();
    return a.compare_exchange_strong(  // scm-lint: default-order-ok
        expected, desired, success, failure);
  }

  template <class T>
  [[gnu::always_inline]] bool late_cas(std::atomic<T>& a, T& expected,
                                       std::type_identity_t<T> desired,
                                       std::memory_order success,
                                       std::memory_order failure)
      noexcept(Ctx::kNoexceptSteps) {
    if (a.compare_exchange_strong(  // scm-lint: default-order-ok
            expected, desired, success, failure)) {
      step<Access::kRmw>();
      return true;
    }
    return false;
  }

  template <class T>
  [[gnu::always_inline, nodiscard]] T& read(T& payload)
      noexcept(Ctx::kNoexceptSteps) {
    step<Access::kRead>();
    return payload;
  }

 private:
  template <Access kKind>
  [[gnu::always_inline]] void step() noexcept(Ctx::kNoexceptSteps) {
    Ctx& self = static_cast<Ctx&>(*this);
    self.grant(kKind);
    StepCounters& c = self.counters();
    if constexpr (kKind == Access::kRead) {
      ++c.reads;
    } else if constexpr (kKind == Access::kWrite) {
      ++c.writes;
    } else {
      static_assert(kKind == Access::kRmw);
      ++c.rmws;
    }
  }
};

// The native context: its steps are counted inline, with no
// synchronization — each context is owned by exactly one thread.
class NativeContext : public StepAccessors<NativeContext> {
 public:
  static constexpr bool kNoexceptSteps = true;

  NativeContext() = default;
  explicit NativeContext(ProcessId id) noexcept : id_(id) {}

  [[nodiscard]] ProcessId id() const noexcept { return id_; }

  [[nodiscard]] StepCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const StepCounters& counters() const noexcept {
    return counters_;
  }

 private:
  friend class StepAccessors<NativeContext>;
  // Real threads need no grant: a native step is its count alone.
  void grant(Access /*kind*/) noexcept {}

  ProcessId id_ = kInvalidProcess;
  StepCounters counters_{};
};

}  // namespace scm
