// The Platform concept.
//
// Every algorithm in this library is a template over a Platform that
// supplies the shared-memory base objects and the execution context:
//
//   P::Context            — per-process execution context (step hooks)
//   P::Register<T>        — MWMR atomic register
//   P::Tas                — hardware test-and-set
//   P::Cas<T>             — hardware compare-and-swap
//   P::Counter            — fetch-and-add counter
//
// The base objects are the native ones on every platform; a platform
// only picks the context that drives their step hooks. NativePlatform
// (NativeContext: real threads, inline step counting; used by
// benchmarks and examples) and sim::SimPlatform (SimContext: every
// hook is a scheduling point of the deterministic simulator; used by
// tests and model-level benches) are the two instantiations, so the
// simulator explores exactly the code that ships.
#pragma once

#include <concepts>

#include "runtime/context.hpp"
#include "runtime/primitives.hpp"
#include "runtime/registers.hpp"

namespace scm {

// Minimal structural requirements on a platform context.
template <class Ctx>
concept ExecutionContext = requires(Ctx c) {
  { c.id() } -> std::convertible_to<ProcessId>;
  { c.counters() } -> std::convertible_to<StepCounters&>;
  c.on_read();
  c.on_write();
  c.on_rmw();
};

template <ExecutionContext Ctx>
struct BasicPlatform {
  using Context = Ctx;
  template <class T>
  using Register = NativeRegister<T>;
  using Tas = NativeTas;
  template <class T>
  using Cas = NativeCas<T>;
  using Counter = NativeCounter;
};

using NativePlatform = BasicPlatform<NativeContext>;

}  // namespace scm
