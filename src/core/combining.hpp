// Flat-combining composition (the batching counterpart of Sharded's
// replication): wrap any ComposableModule in a publication array and
// let ONE elected combiner execute everyone's pending requests through
// the batch invocation path (core/batch.hpp).
//
// Combining<Obj, kSlots> is a combinator, not an algorithm: each
// operation publishes its request into a one-cache-line slot (one
// release store; process i starts its claim at slot i mod kSlots, so
// with threads <= kSlots every thread owns a private slot), then
// either waits for a combiner to serve it or — whenever the election
// gate is free — becomes the combiner itself, draining every pending
// slot through run_batch(obj, ...) in one pass. Under contention the
// composed-chain walk that every process used to pay per operation is
// paid once per batch by the combiner, which also keeps the wrapped
// object's cache lines local to one core instead of bouncing them
// between all publishers (Hendler/Incze/Shavit/Tzafrir's flat
// combining, applied to the paper's composition chains).
//
// Semantics: the combiner executes the batch sequentially while
// holding the gate, so every operation — published or run on the
// fast path — takes effect at one point inside its invoke/return
// interval: the wrapped object's linearizability is preserved, and a
// single-threaded caller gets bit-identical results to invoking the
// object directly (combining_test pins both properties). Note the
// combiner executes published requests under its OWN context: per-op
// step counters accrue to the serving thread, and requests carry their
// issuer in Request::issuer.
//
// Combining forwards the module surface (invoke + kConsensusNumber,
// plus stats()/commits_by() when Obj has them), so it is itself a
// ComposableModule and nests inside Sharded — per-shard combiners are
// the roadmap's "per-shard batch queues".
//
// Async surface (core/async.hpp): a publication slot already is a
// one-operation future, so submit() detaches the wait loop — it
// publishes and returns a Ticket (or completes inline and returns a
// ready ticket whenever the gate is free), and drain() combines until
// no publication is pending. The ticket's poll()/wait() complete the
// slot round trip the blocking invoke() used to finish in place;
// wait() helps (the caller may elect itself combiner), so progress
// never depends on other threads. Destroying a Combining with any slot
// still occupied — an outstanding ticket — is a checked error.
//
// The protocol is core/slot_protocol.hpp's CombiningCore, the code
// ShmCombining runs too: the slot transitions, the election gate (held
// here as 1), the gate-held fast path, the served-wait loop and drain(),
// all parked on one process-private WaitPoint. Every blocking point
// goes through wait_until (runtime/wait.hpp), so this class runs under
// SimContext as shipped and combining_explore_test enumerates its
// interleavings. What stays here is policy: the elect_spins election,
// the inline fallback when every record is taken, tickets and
// completion callbacks. The RMW budget: a fast-path op pays one (the
// gate CAS), a published op two (its claim + whoever wins the gate
// serving it). The election makes up to kDefaultElectSpins attempts by
// default, so an op that finds the gate held by one short direct op
// waits it out and runs direct too, rather than paying the whole
// publication round trip.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/async.hpp"
#include "core/module.hpp"
#include "core/sharding.hpp"
#include "core/slot_protocol.hpp"
#include "history/request.hpp"
#include "runtime/ids.hpp"
#include "runtime/wait.hpp"
#include "support/assert.hpp"
#include "support/backoff.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"

namespace scm {

namespace detail {

// The wrapper's own base objects are the publication registers plus the
// election gate. Its CAS always swaps 0 for the constant kGateHolder,
// which is a test-and-set, so the composition's consensus number is the
// max of the wrapped object's and TAS's.
template <class Obj, class = void>
struct CombiningConsensusBase {};

template <class Obj>
struct CombiningConsensusBase<Obj,
                              std::void_t<decltype(Obj::kConsensusNumber)>> {
  static constexpr int kConsensusNumber =
      std::max(Obj::kConsensusNumber, kConsensusNumberTas);
};

}  // namespace detail

// A Combining record's `extra` (core/slot_protocol.hpp): the optional
// callback the finalizing thread runs on the request it completes.
struct SlotCompletion {
  CompletionFn fn = nullptr;
  void* user = nullptr;

  void complete(const Request& request, const ModuleResult& result) const {
    if (fn != nullptr) fn(user, request, result);
  }
};

// Combining lives in one process, so it inherits its core (ShmCombining,
// which must stay standard-layout for the segment, holds its core as a
// member instead) and re-exports the core's telemetry as its own.
template <class Obj, std::size_t kSlots>
class Combining
    : public detail::CombiningConsensusBase<Obj>,
      public detail::ShardedDepthBase<Obj>,
      private CombiningCore<SlotCompletion, kSlots, FutexScope::kPrivate> {
  using Core = CombiningCore<SlotCompletion, kSlots, FutexScope::kPrivate>;
  // A thread cannot die holding the gate, so the holder needs no name.
  static constexpr std::uint32_t kGateHolder = 1;

 public:
  static constexpr std::size_t kSlotCount = kSlots;

  // Gate attempts a per-op election makes by default before it
  // publishes (the elect_spins knob): enough, with a pause between
  // attempts, to wait out one short direct op's hold. On perfbench's
  // kv-write-heavy (4 threads on a 4-CPU x86 container, 4 runs of 4 s
  // each) 16 raised p99 by about 20% over 32, 64 and 128, which were
  // within noise of one another; 64 had the lowest median p50.
  static constexpr std::uint32_t kDefaultElectSpins = 64;

  // The publication protocol (core/slot_protocol.hpp), exposed so
  // tests can assert this wrapper and the cross-process ShmCombining
  // compile against the SAME state machine, record payload and gate.
  using slot_state = SlotState;
  using slot_payload = SlotPayload;
  using gate_type = typename Core::gate_type;
  static constexpr std::size_t kSlotBytes =
      sizeof(typename Core::Slots::Record);

  Combining()
    requires std::is_default_constructible_v<Obj>
      : obj_{} {}

  // In-place construction for wrapped objects with constructor
  // parameters (chains, pipelines of referenced modules).
  template <class... Args>
  explicit Combining(std::in_place_t, Args&&... args)
      : obj_(std::in_place, std::forward<Args>(args)...) {}

  Combining(const Combining&) = delete;
  Combining& operator=(const Combining&) = delete;

  // No publication may outlive the wrapper: at destruction every slot
  // must be kFree — tickets collected (or dropped: a dropped ticket
  // waits out its op). Anything else is an outstanding operation about
  // to read freed memory, so it is a checked error rather than
  // undefined behaviour.
  ~Combining() {
    SCM_CHECK_MSG(Core::occupied() == 0,
                  "Combining destroyed with an occupied publication slot "
                  "(outstanding Ticket)");
  }

  // Module surface: publish, then wait to be served or combine. With
  // more threads than slots, a publisher whose home slot is busy
  // claims the next free one; when none is free it serves itself
  // inline under the gate (claim_or_run).
  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    // Fast path: the gate is free, or frees within the election's
    // attempts — run the operation directly (a batch of one, no
    // publication round trip), then serve anyone who published while
    // we held the gate. At low contention this makes the wrapper cost
    // one CAS, one scan and one more write to the gate's line (the
    // direct-op count); at high contention the gate rarely frees in
    // time, so operations take the publication path below and get
    // batched. How hard to fight for the gate here is the runtime
    // elect_spins knob: 0 skips the election entirely (publish-and-batch
    // mode).
    ModuleResult inline_result;
    const auto idx = submit_impl(ctx, m, init, {}, &inline_result);
    return idx.has_value() ? Core::await_served(obj_.value, ctx, *idx,
                                                kGateHolder, true)
                           : inline_result;
  }

  // ---- async surface (core/async.hpp).

  // Publish-and-return. On the uncontended fast path (gate free) the
  // operation completes inline — a batch of one, exactly invoke()'s
  // fast path — and the ticket is born ready, so submit().wait() costs
  // what invoke() costs and returns bit-identical results. Otherwise
  // the request is published and the wait loop is detached into the
  // returned Ticket: poll() checks the slot, wait() helps combine, and
  // whichever completes first consumes the round trip. When the
  // publication array is exhausted (every record held by an
  // uncollected ticket) the operation completes inline under the gate
  // instead — see claim_or_run — so submission never blocks on ticket
  // holders. The optional completion callback runs on the thread that
  // finalizes the operation — the combiner for published ops, the
  // caller on inline paths — and on EVERY path it fires with the gate
  // held, right at the op's serialization point: callbacks across the
  // whole object fire in linearization order (the caching
  // combinator's invalidation/refill depends on this), and callbacks
  // must never re-enter this Combining. On awaitable contexts (the
  // simulator) submit() is invoke() plus a ready ticket: the simulator
  // explores invoke()'s publication round trip through await, and
  // pending tickets stay a native-thread surface.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  Ticket<ModuleResult> submit(Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init = std::nullopt,
                              CompletionFn completion = nullptr,
                              void* user = nullptr) {
    if constexpr (detail::context_can_await_v<Ctx>) {
      const ModuleResult r = invoke(ctx, m, init);
      SlotCompletion{completion, user}.complete(m, r);
      return Ticket<ModuleResult>::ready(r);
    } else {
      ModuleResult r;
      const auto idx = submit_impl(ctx, m, init, {completion, user}, &r);
      if (!idx.has_value()) return Ticket<ModuleResult>::ready(r);
      return Ticket<ModuleResult>(
          &ticket_source<Ctx>(), this,
          reinterpret_cast<void*>(static_cast<std::uintptr_t>(*idx)), &ctx);
    }
  }

  // Combines until no publication is pending: when drain() returns,
  // every operation submitted (by any thread) before the call has been
  // EXECUTED — its slot sits in kDone awaiting its ticket. It does not
  // wait for other threads to collect their tickets. kClaimed records
  // are waited out too: claim and publish are adjacent on every path,
  // so a claimed record is a publication about to turn pending, and a
  // drainer that returned past it could leave it to a publisher that
  // only polls. A no-op on awaitable contexts, where submit() leaves
  // nothing pending.
  template <class Ctx>
  void drain(Ctx& ctx) {
    if constexpr (!detail::context_can_await_v<Ctx>) {
      Core::drain(obj_.value, ctx, kGateHolder, SlotState::kClaimed);
    } else {
      (void)ctx;
    }
  }

  [[nodiscard]] Obj& object() noexcept { return obj_.value; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_.value; }

  // ---- combining telemetry (core/slot_protocol.hpp's CombiningCore).
  // direct_ops() + combined_ops() == total invocations, and
  // combined_ops() / combine_rounds() is the achieved batch size. A
  // pure fast-path run makes no futex syscall (async_test's
  // AsyncSubmit.SoloSubmitWaitMatchesInvokeOnEveryLayer asserts that).
  // occupied() counts records not kFree: zero once every invoke has
  // returned and every ticket is collected. gate_holder() is
  // kGateHolder while some thread combines, 0 when free. The explorer
  // asserts both are zero after every explored schedule.
  using Core::combine_rounds, Core::combined_ops, Core::direct_ops,
      Core::park_stats, Core::occupied, Core::gate_holder;

  // ---- runtime knobs: Adaptive's two actuators (core/adaptive.hpp
  // drives them; both are relaxed hints, safe to flip while operations
  // are in flight).

  // Gate attempts a per-op entry point makes before conceding to the
  // publication path: kDefaultElectSpins unless set; 1 = one attempt,
  // the TAS fast path (Adaptive's direct value); 0 = publish-and-batch
  // mode.
  void set_elect_spins(std::uint32_t n) noexcept {
    elect_spins_.value.store(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t elect_spins() const noexcept {
    return elect_spins_.value.load(std::memory_order_relaxed);
  }

  // How many yields a saturated waiter climbs before its first park,
  // for every blocking site in this wrapper.
  using Core::set_yields_before_park, Core::yields_before_park;

  // ---- forwarded statistics surfaces (enabled exactly when the
  // wrapped object provides them), so Combining<Pipeline<...>> keeps
  // the pipeline's per-stage accounting and Sharded can merge it.

  [[nodiscard]] PipelineStageStats stats(std::size_t i) const
    requires requires(const Obj& o, std::size_t j) {
      { o.stats(j) } -> std::same_as<PipelineStageStats>;
    }
  {
    return obj_.value.stats(i);
  }

  [[nodiscard]] std::uint64_t commits_by(ProcessId pid, std::size_t i) const
    requires requires(const Obj& o, std::size_t j) { o.commits_by(pid, j); }
  {
    return obj_.value.commits_by(pid, i);
  }

 private:
  // The knob-gated election used by the PER-OP entry points (invoke,
  // submit): up to elect_spins gate attempts with a pause between
  // them, and none after the last. The default, kDefaultElectSpins,
  // spans one short direct op's hold; 0 turns the direct fast path off
  // entirely, so every contended op publishes and amortizes into a
  // combiner batch — what the adaptive layer selects under sustained
  // contention. The liveness sites (claim_or_run's exhaustion
  // fallback, the core's served-wait and drain loops) make their one
  // raw attempt regardless: at elect_spins == 0 someone must still be
  // able to take the gate or nothing would ever combine.
  template <class Ctx>
  bool try_elect(Ctx& ctx) {
    const std::uint32_t attempts =
        elect_spins_.value.load(std::memory_order_relaxed);
    for (std::uint32_t a = 0; a < attempts; ++a) {
      if (a != 0) cpu_pause();
      if (Core::try_acquire(ctx, kGateHolder)) return true;
    }
    return false;
  }

  // Shared body of invoke, and of submit on blocking platforms:
  // completes the operation inline — fast path or exhaustion
  // fallback, with the callback fired under the gate inside
  // run_direct, returning nullopt with *out filled — or claims AND
  // publishes a record, returning its index (the callback then
  // travels with the publication and the serving combiner fires it,
  // likewise under the gate).
  template <class Ctx>
  std::optional<std::size_t> submit_impl(Ctx& ctx, const Request& m,
                                         std::optional<SwitchValue> init,
                                         const SlotCompletion& completion,
                                         ModuleResult* out) {
    if (try_elect(ctx)) {
      *out = Core::run_direct(obj_.value, ctx, m, init, completion);
      return std::nullopt;
    }
    const auto idx = claim_or_run(ctx, m, init, completion, out);
    if (idx.has_value()) {
      Core::slots().publish(ctx, *idx, 0, m, init, completion);
    }
    return idx;
  }

  // Either claims a publication record — returning its index,
  // publication left to the caller — or executes the operation inline
  // under the gate, returning nullopt with *out filled.
  //
  // The inline fallback is what keeps async submission LIVE: a kDone
  // record frees only when its owner polls, and under async submission
  // every owner of every record can simultaneously be stuck in a claim
  // loop (none of them can collect its own tickets from there), so
  // waiting for a record to free can deadlock the whole group. The
  // gate, by contrast, always frees in bounded time (holders run one
  // bounded pass and release), so "serve yourself as a batch of one"
  // is always reachable. The home slot is only where the rotation
  // starts: any record serves a publication equally.
  template <class Ctx>
  std::optional<std::size_t> claim_or_run(Ctx& ctx, const Request& m,
                                          std::optional<SwitchValue> init,
                                          const SlotCompletion& completion,
                                          ModuleResult* out) {
    const std::size_t home = static_cast<std::size_t>(ctx.id()) % kSlots;
    for (;;) {
      if (const auto idx = Core::slots().try_claim(ctx, home, 0)) return idx;
      if (Core::try_acquire(ctx, kGateHolder)) {
        *out = Core::run_direct(obj_.value, ctx, m, init, completion);
        return std::nullopt;
      }
      // Nothing claimable and the gate is held: park until a record
      // frees or the gate does, then retry the races above.
      Core::wait(ctx, [this] {
        return Core::gate_free() || Core::occupied() < kSlots;
      });
    }
  }

  // ---- ticket plumbing: the type-erased completion source bound into
  // every pending Ticket. `slot` carries the publication slot INDEX
  // (as a uintptr), not a pointer — collect() takes the index.

  template <class Ctx>
  static bool ticket_poll(void* source, void* slot, void* ctx,
                          ModuleResult* out) {
    auto* self = static_cast<Combining*>(source);
    const auto idx =
        static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(slot));
    if (!self->slots().done(idx)) return false;
    *out = self->collect(*static_cast<Ctx*>(ctx), idx);
    return true;
  }

  template <class Ctx>
  static void ticket_wait(void* source, void* slot, void* ctx,
                          ModuleResult* out) {
    auto* self = static_cast<Combining*>(source);
    const auto idx =
        static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(slot));
    *out = self->await_served(self->obj_.value, *static_cast<Ctx*>(ctx), idx,
                              kGateHolder, true);
  }

  template <class Ctx>
  static const TicketSource<ModuleResult>& ticket_source() {
    static constexpr TicketSource<ModuleResult> kSource{
        &Combining::ticket_poll<Ctx>, &Combining::ticket_wait<Ctx>};
    return kSource;
  }

  // Read-mostly election knob on its own line: every per-op entry
  // loads it; only adaptive reconfigurations write it.
  Padded<std::atomic<std::uint32_t>> elect_spins_{std::in_place,
                                                   kDefaultElectSpins};
  Padded<Obj> obj_;
};

}  // namespace scm
