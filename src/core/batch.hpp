// Batch invocation layer: the publication record a combine pass hands
// to the object it serves, and the dispatcher that runs a batch
// through any Composable object.
//
// The paper composes one operation at a time (Figure 1, Theorem 2: an
// aborted op's switch value initializes the next module), and a batch
// keeps that: run_batch runs each slot, in order, through
// scm::apply() — the same per-op chain walk (Pipeline::run_from) that
// a direct invocation takes. So a batch executed by one thread returns
// exactly the results of invoking its slots in order, for every
// object, including a pipeline whose stages reference one stateful
// module (combining_test pins that case).
#pragma once

#include <optional>
#include <span>

#include "core/module.hpp"
#include "history/request.hpp"

namespace scm {

// One pending operation of a batch: the request, its upstream
// initialization (std::nullopt for "not initialized", exactly as in
// the per-op invoke), and the result slot the executor fills in.
struct OpSlot {
  Request request;
  std::optional<SwitchValue> init;
  ModuleResult result;
};

// A module with a batch path of its own. No object in src/ has one;
// the seam stays so that a forwarding wrapper can pass a batch through
// unchanged.
template <class M, class Ctx>
concept BatchInvocable = requires(M m, Ctx& ctx, std::span<OpSlot> batch) {
  m.invoke_batch(ctx, batch);
};

// Generic batch dispatch: the module's own invoke_batch when it has
// one, otherwise the per-op loop through scm::apply(), so any
// Composable object can sit under a batching layer. Every slot's
// result is filled on return.
template <class M, class Ctx>
  requires BatchInvocable<M, Ctx> || Composable<M, Ctx>
void run_batch(M& m, Ctx& ctx, std::span<OpSlot> batch) {
  if constexpr (BatchInvocable<M, Ctx>) {
    m.invoke_batch(ctx, batch);
  } else {
    for (OpSlot& slot : batch) {
      slot.result = scm::apply(m, ctx, slot.request, slot.init);
    }
  }
}

}  // namespace scm
