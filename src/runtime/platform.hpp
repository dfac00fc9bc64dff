// The shared memory of the paper, in one include.
//
// The base objects are NativeRegister<T> (MWMR atomic register),
// NativeTas (hardware test-and-set), NativeCas<T> (compare-and-swap) and
// NativeCounter (fetch-and-add). Algorithms name them directly and are
// templated only on the execution context, taken per call: each access
// calls ctx.on_*() before touching its atomic cell. NativeContext
// counts the step inline (real threads; benchmarks and examples);
// sim::SimContext also makes the hook a scheduling point of the
// deterministic simulator (tests and model-level benches), so the
// simulator explores exactly the code that ships.
#pragma once

#include "runtime/context.hpp"
#include "runtime/primitives.hpp"
#include "runtime/registers.hpp"
