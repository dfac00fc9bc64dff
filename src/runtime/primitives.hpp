// Native hardware primitives: test-and-set, compare-and-swap and
// fetch-and-add, each tagged with its consensus number so composed
// algorithms can statically assert the paper's "consensus number at
// most two" claims.
//
// The context-taking accessors are noexcept exactly when the context's
// step hook is: under the simulator, ctx.on_*() throws sim::Crashed when
// the scheduler kills the process at that step, and the crash must
// unwind to the simulator's thread wrapper (through noexcept it would
// std::terminate the whole binary). NativeContext's hooks are noexcept,
// so native instantiations keep it. peek()/reset() take no step.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "support/cacheline.hpp"
#include "runtime/context.hpp"
#include "runtime/ids.hpp"

namespace scm {

// Hardware test-and-set: one RMW step. Returns the *previous* value
// (0 => the caller won). Resettable for long-lived use.
class alignas(kCacheLineSize) NativeTas {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberTas;

  NativeTas() = default;
  NativeTas(const NativeTas&) = delete;
  NativeTas& operator=(const NativeTas&) = delete;

  template <class Ctx>
  [[nodiscard]] int test_and_set(Ctx& ctx) noexcept(noexcept(ctx.on_rmw())) {
    ctx.on_rmw();
    return cell_.exchange(1, std::memory_order_seq_cst);
  }

  template <class Ctx>
  [[nodiscard]] int read(Ctx& ctx) const noexcept(noexcept(ctx.on_read())) {
    ctx.on_read();
    return cell_.load(std::memory_order_seq_cst);
  }

  // Model-level reset (used by the long-lived wrapper; the paper resets
  // by moving to a fresh object, but a reusable cell is also offered).
  void reset() noexcept { cell_.store(0, std::memory_order_seq_cst); }

  [[nodiscard]] int peek() const noexcept {
    return cell_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> cell_{0};
};

// Hardware compare-and-swap register (consensus number infinity).
template <class T>
class alignas(kCacheLineSize) NativeCas {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  static constexpr int kConsensusNumber = kConsensusNumberCas;

  NativeCas() = default;
  explicit NativeCas(T initial) noexcept : cell_(initial) {}
  NativeCas(const NativeCas&) = delete;
  NativeCas& operator=(const NativeCas&) = delete;

  // Single-shot CAS: one RMW step. On failure `expected` is updated to
  // the current value, matching std::atomic::compare_exchange_strong.
  template <class Ctx>
  [[nodiscard]] bool compare_and_swap(Ctx& ctx, T& expected, T desired)
      noexcept(noexcept(ctx.on_rmw())) {
    ctx.on_rmw();
    return cell_.compare_exchange_strong(expected, desired,
                                         std::memory_order_seq_cst,
                                         std::memory_order_seq_cst);
  }

  template <class Ctx>
  [[nodiscard]] T read(Ctx& ctx) const noexcept(noexcept(ctx.on_read())) {
    ctx.on_read();
    return cell_.load(std::memory_order_seq_cst);
  }

  template <class Ctx>
  void write(Ctx& ctx, T value) noexcept(noexcept(ctx.on_write())) {
    ctx.on_write();
    cell_.store(value, std::memory_order_seq_cst);
  }

  [[nodiscard]] T peek() const noexcept {
    return cell_.load(std::memory_order_relaxed);
  }
  void reset(T value) noexcept {
    cell_.store(value, std::memory_order_relaxed);
  }

 private:
  std::atomic<T> cell_{};
};

// Fetch-and-add counter (consensus number 2). Used by the universal
// construction to assign timestamps and by the long-lived TAS `Count`.
class alignas(kCacheLineSize) NativeCounter {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  NativeCounter() = default;
  NativeCounter(const NativeCounter&) = delete;
  NativeCounter& operator=(const NativeCounter&) = delete;

  template <class Ctx>
  [[nodiscard]] std::uint64_t fetch_add(Ctx& ctx, std::uint64_t d = 1)
      noexcept(noexcept(ctx.on_rmw())) {
    ctx.on_rmw();
    return cell_.fetch_add(d, std::memory_order_seq_cst);
  }

  template <class Ctx>
  [[nodiscard]] std::uint64_t read(Ctx& ctx) const
      noexcept(noexcept(ctx.on_read())) {
    ctx.on_read();
    return cell_.load(std::memory_order_seq_cst);
  }

  [[nodiscard]] std::uint64_t peek() const noexcept {
    return cell_.load(std::memory_order_relaxed);
  }
  void reset(std::uint64_t v = 0) noexcept {
    cell_.store(v, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> cell_{0};
};

}  // namespace scm
