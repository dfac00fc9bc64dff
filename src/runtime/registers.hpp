// Native multi-writer multi-reader atomic registers.
//
// The model of the paper gives processes linearizable read/write
// registers. std::atomic<T> loads/stores with seq_cst provide exactly
// that (and the algorithms of the paper — splitters, the A1 racing
// pattern, the bakery — need the store-load ordering that weaker
// orders would forfeit). Each register is padded onto its own cache
// line so that register-level step counts translate into cache-level
// behaviour without false-sharing artifacts.
#pragma once

#include <atomic>
#include <type_traits>

#include "support/cacheline.hpp"
#include "runtime/context.hpp"
#include "runtime/ids.hpp"

namespace scm {

template <class T>
class alignas(kCacheLineSize) NativeRegister {
  static_assert(std::is_trivially_copyable_v<T>,
                "atomic registers hold trivially copyable values");

 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  NativeRegister() = default;
  explicit NativeRegister(T initial) noexcept : cell_(initial) {}

  // Registers are shared objects; they are neither copied nor moved.
  NativeRegister(const NativeRegister&) = delete;
  NativeRegister& operator=(const NativeRegister&) = delete;

  // noexcept only for contexts whose hooks are: a simulated ctx.on_*()
  // throws sim::Crashed (see runtime/primitives.hpp).
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

  // Unsynchronized accessors for setup/teardown and assertions outside
  // the measured execution (never called from algorithm code).
  [[nodiscard]] T peek() const noexcept {
    return cell_.load(std::memory_order_relaxed);
  }
  void reset(T value) noexcept {
    cell_.store(value, std::memory_order_relaxed);
  }

 private:
  std::atomic<T> cell_{};
};

}  // namespace scm
