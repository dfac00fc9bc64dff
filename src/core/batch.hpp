// Batch invocation layer: the publication record shared by every
// batched execution path (pipelines, the flat-combining wrapper) and
// the generic dispatcher that drives a batch through any Composable
// object.
//
// The paper measures composition one operation at a time; under
// contention the dominant cost is every process paying the full
// composed-chain walk itself. A batch turns that per-operation walk
// into a per-batch walk: the executor runs MANY pending requests
// through the chain in one pass (Pipeline::invoke_batch walks the
// abort→init switch plumbing stage-major; Combining<> elects one
// combiner to execute a whole publication list), so the composition
// overhead — per-stage bookkeeping, the switch-value fold, cache-line
// traffic into the stages — is amortized over the batch.
//
// Semantics: a batch executed by a single thread produces exactly the
// results of invoking each slot in order, provided the stages are
// distinct objects (they always are in a pipeline — each stage's
// invocation subsequence, and therefore its state evolution, is
// identical under per-op and stage-major order). combining_test's
// Batch.* cases pin this equivalence.
#pragma once

#include <optional>
#include <span>

#include "core/module.hpp"
#include "history/request.hpp"

namespace scm {

// One pending operation of a batch: the request, its upstream
// initialization (std::nullopt for "not initialized", exactly as in
// the per-op invoke), and the result slot the executor fills in. A
// batch executor runs exactly the slots whose `done` flag is false —
// default-initialized slots are pending — and sets the flag as it
// finalizes each result, so every flag is true when the batch call
// returns. Executors nest on this contract: an outer pipeline hands a
// nested stage the whole span and the nested walk skips the slots the
// outer one already finalized, no gathering or copying required.
struct OpSlot {
  Request request;
  std::optional<SwitchValue> init;
  ModuleResult result;
  bool done = false;
};

// A module with a native batch path. Modules are free to omit it —
// run_batch falls back to the per-op loop — and free to specialize it
// when a whole batch can share work (Pipeline walks its switch
// plumbing once per batch; a future async stage could overlap slots).
template <class M, class Ctx>
concept BatchInvocable = requires(M m, Ctx& ctx, std::span<OpSlot> batch) {
  m.invoke_batch(ctx, batch);
};

// Generic batch dispatch: the module's own invoke_batch when it has
// one, otherwise the semantics-defining per-op loop. Every pending
// (done == false) slot's result is filled and its flag set on return.
// The fallback enters through scm::apply(), so any Composable object
// can sit under a batching layer.
template <class M, class Ctx>
  requires BatchInvocable<M, Ctx> || Composable<M, Ctx>
void run_batch(M& m, Ctx& ctx, std::span<OpSlot> batch) {
  if constexpr (BatchInvocable<M, Ctx>) {
    m.invoke_batch(ctx, batch);
  } else {
    for (OpSlot& slot : batch) {
      if (slot.done) continue;
      slot.result = scm::apply(m, ctx, slot.request, slot.init);
      slot.done = true;
    }
  }
}

}  // namespace scm
