// The shared memory of the paper, in one include.
//
// The base objects are NativeRegister<T> (MWMR atomic register),
// NativeTas (hardware test-and-set), NativeCas<T> (compare-and-swap) and
// NativeCounter (fetch-and-add). Algorithms name them directly and are
// templated only on the execution context, taken per call: each access
// is one of the context's step accessors (runtime/context.hpp), which
// takes the step before touching the atomic cell. NativeContext counts
// the step inline (real threads; benchmarks and examples);
// sim::SimContext also makes it a scheduling point of the
// deterministic simulator (tests and model-level benches), so the
// simulator explores exactly the code that ships.
#pragma once

#include "runtime/context.hpp"
#include "runtime/primitives.hpp"
#include "runtime/registers.hpp"
