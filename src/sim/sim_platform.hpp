// The simulated platform: the native base objects, driven by
// SimContext. Every access calls ctx.on_*() before touching the atomic
// cell, and that hook parks the process until the token-passing
// scheduler grants the step, so exactly one process touches shared
// memory at a time and the grant order is the linearization order.
// A crash injected at a hook throws sim::Crashed before the access, and
// the context-dependent noexcept of the primitives lets it unwind.
#pragma once

#include "runtime/platform.hpp"
#include "sim/simulator.hpp"

namespace scm::sim {

using SimPlatform = BasicPlatform<SimContext>;

}  // namespace scm::sim
