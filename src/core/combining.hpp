// Flat-combining composition (the batching counterpart of Sharded's
// replication): wrap any ComposableModule in a publication array and
// let ONE elected combiner execute everyone's pending requests through
// the batch invocation path (core/batch.hpp).
//
// Combining<Obj, kSlots> is a combinator, not an algorithm: each
// operation publishes its request into a cacheline-padded slot (one
// release store; process i starts its claim at slot i mod kSlots, so
// with threads <= kSlots every thread owns a private slot), then
// either waits for a combiner to serve it or — whenever the
// TAS-elected combiner lock is free — becomes the combiner itself,
// draining every pending slot through run_batch(obj, ...) in one pass.
// Under contention the composed-chain walk that every process used to
// pay per operation is paid once per batch by the combiner, which also
// keeps the wrapped object's cache lines local to one core instead of
// bouncing them between all publishers (Hendler/Incze/Shavit/Tzafrir's
// flat combining, applied to the paper's composition chains).
//
// Semantics: the combiner executes the batch sequentially while
// holding the election lock, so every operation — published or run on
// the lock-free fast path — takes effect at one point inside its
// invoke/return interval: the wrapped object's linearizability is
// preserved, and a single-threaded caller gets bit-identical results
// to invoking the object directly (combining_test pins both
// properties). Note the combiner
// executes published requests under its OWN context: per-op step
// counters accrue to the serving thread, and requests carry their
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
// ready ticket whenever the combiner lock is free), and drain()
// combines until no publication is pending. The ticket's poll()/wait()
// complete the slot round trip the blocking invoke() used to finish in
// place; wait() helps (the caller may elect itself combiner), so
// progress never depends on other threads. Destroying a Combining with
// any slot still occupied — an outstanding ticket — is a checked
// error.
//
// Platform note: publishers BLOCK on the combiner's progress, but the
// blocking points all go through the wait_until() seam
// (runtime/wait.hpp): native contexts climb the spin → yield → park
// ladder against the wrapper's WaitPoint (support/parking.hpp) — the
// combiner issues one batched wake per drained slot set, and the
// uncontended fast path performs no futex syscall at all — while the
// deterministic simulator parks the process on a wait predicate
// (ignoring the WaitPoint) — so the ENTIRE slot protocol runs
// under SimPlatform and sim::explore enumerates its interleavings
// (combining_explore_test checks this class, as shipped, for
// linearizability, zero slot residue and a released election lock over
// every schedule of 2-3 processes; slot_protocol_explore_test does the
// same for ShmCombining). Like SpinBarrier, the
// unbounded spin loads are not counted as steps; the slot-claim RMW,
// the publish write, the result read, the combiner-election RMW, and
// the combiner's reads/writebacks of pending slots are (they are the
// algorithm's real per-operation shared-memory traffic). That is the
// whole RMW budget: a fast-path op pays one (the election), a
// published op two (claim + whoever wins the election serving it).
// Nothing else on the path RMWs a line other threads write: the
// combiner finds work by scanning slot words, and the telemetry
// counters are plain stores under the election lock.
// The election lock's failed pre-test loads and release store are
// uncounted as well: under the simulator each such access is adjacent
// to a counted scheduling point, so no interleaving class is lost —
// only equivalent schedules collapse, which is what keeps exhaustive
// exploration tractable.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/async.hpp"
#include "core/batch.hpp"
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

// The wrapper's own base objects are the publication registers plus a
// TAS-elected combiner lock, so the composition's consensus number is
// the max of the wrapped object's and TAS's.
template <class Obj, class = void>
struct CombiningConsensusBase {};

template <class Obj>
struct CombiningConsensusBase<Obj,
                              std::void_t<decltype(Obj::kConsensusNumber)>> {
  static constexpr int kConsensusNumber =
      std::max(Obj::kConsensusNumber, kConsensusNumberTas);
};

}  // namespace detail

template <class Obj, std::size_t kSlots>
class Combining : public detail::CombiningConsensusBase<Obj>,
                  public detail::ShardedDepthBase<Obj> {
  static_assert(kSlots >= 1, "a combining wrapper needs at least one slot");

 public:
  static constexpr std::size_t kSlotCount = kSlots;

  // The publication protocol (core/slot_protocol.hpp), exposed so
  // tests can assert this wrapper and the cross-process ShmCombining
  // compile against the SAME state machine.
  using slot_state = SlotState;

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
    for (auto& padded : slots_) {
      SCM_CHECK_MSG(
          padded.value.status.load(std::memory_order_acquire) == kFree,
          "Combining destroyed with an occupied publication slot "
          "(outstanding Ticket)");
    }
  }

  // Module surface: publish, then wait to be served or combine. With
  // more threads than slots, a publisher whose home slot is busy
  // claims the next free one; when none is free it serves itself
  // inline under the election lock (claim_or_run).
  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    // Fast path: the combiner lock is free — run the operation
    // directly (a batch of one, no publication round trip), then
    // serve anyone who published while we held the lock. At low
    // contention this makes the wrapper cost one TAS + one scan; at
    // high contention the lock is rarely free, so operations take the
    // publication path below and get batched. How hard to fight for
    // the lock here is the runtime elect_spins knob: 0 skips the
    // election entirely (publish-and-batch mode).
    ModuleResult inline_result;
    const auto idx = submit_impl(ctx, m, init, nullptr, nullptr,
                                 &inline_result);
    return idx.has_value() ? await_served(ctx, *idx) : inline_result;
  }

  // Native batch path (BatchInvocable): one combiner election serves
  // the WHOLE caller-provided batch — plus anything published
  // meanwhile — instead of paying one publication round trip per op.
  // This is what lets an outer grouping layer (Sharded::invoke_batch
  // building per-shard sub-batches) hand a per-shard combiner a REAL
  // batch: the wrapped object's own batch path (a pipeline's
  // stage-major walk) runs over all of it in one pass. Ops executed
  // this way count as direct (no publication), keeping
  // direct_ops() + combined_ops() == total invocations.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  void invoke_batch(Ctx& ctx, std::span<OpSlot> batch) {
    if (batch.empty()) return;
    std::uint64_t live = 0;
    for (const OpSlot& slot : batch) live += slot.done ? 0 : 1;
    if (live == 0) return;
    while (!try_lock(ctx)) {
      wait_until(
          ctx,
          [this] { return !lock_.value.load(std::memory_order_relaxed); },
          waiters_.value);
    }
    run_batch(obj_.value, ctx, batch);
    bump(direct_ops_, live);
    combine(ctx);
    lock_.value.store(false, std::memory_order_release);
    waiters_.value.wake_all();
  }

  // ---- async surface (core/async.hpp).

  // Publish-and-return. On the uncontended fast path (combiner lock
  // free) the operation completes inline — a batch of one, exactly
  // invoke()'s fast path — and the ticket is born ready, so
  // submit().wait() costs what invoke() costs and returns bit-identical
  // results. Otherwise the request is published and the wait loop is
  // detached into the returned Ticket: poll() checks the slot, wait()
  // helps combine, and whichever completes first consumes the round
  // trip. When the publication array is exhausted (every record held
  // by an uncollected ticket) the operation completes inline under
  // the combiner lock instead — see claim_or_run — so submission
  // never blocks on ticket holders. The optional completion callback
  // runs on the thread that finalizes the operation — the combiner
  // for published ops, the caller on inline paths — and on EVERY path
  // it fires with the election lock held, right at the op's
  // serialization point: callbacks across the whole object fire in
  // linearization order (the caching combinator's invalidation/refill
  // depends on this), and callbacks must never re-enter this
  // Combining. On non-blocking platforms (the step-granting
  // simulator) publication round trips cannot run, so submit()
  // degenerates to invoke() plus a ready ticket.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  Ticket<ModuleResult> submit(Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init = std::nullopt,
                              CompletionFn completion = nullptr,
                              void* user = nullptr) {
    if constexpr (!detail::context_can_block_v<Ctx>) {
      const ModuleResult r = invoke(ctx, m, init);
      if (completion != nullptr) completion(user, r);
      return Ticket<ModuleResult>::ready(r);
    } else {
      ModuleResult r;
      const auto idx = submit_impl(ctx, m, init, completion, user, &r);
      if (!idx.has_value()) return Ticket<ModuleResult>::ready(r);
      return Ticket<ModuleResult>(
          &ticket_source<Ctx>(), this,
          reinterpret_cast<void*>(static_cast<std::uintptr_t>(*idx)), &ctx);
    }
  }

  // Combines until no publication is pending: when drain() returns,
  // every operation submitted (by any thread) before the call has been
  // EXECUTED — its slot sits in kDone awaiting its ticket. It does not
  // wait for other threads to collect their tickets. A no-op on
  // non-blocking platforms, where nothing can be pending.
  template <class Ctx>
  void drain(Ctx& ctx) {
    if constexpr (detail::context_can_block_v<Ctx>) {
      while (any_unserved()) {
        if (help_combine(ctx)) continue;
        wait_until(
            ctx,
            [this] {
              return !any_unserved() ||
                     !lock_.value.load(std::memory_order_relaxed);
            },
            waiters_.value);
      }
    } else {
      (void)ctx;
    }
  }

  [[nodiscard]] Obj& object() noexcept { return obj_.value; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_.value; }

  // ---- combining telemetry (relaxed; written only by the election
  // lock holder, so plain load+store with no RMW).

  // Number of combiner passes that served at least one operation.
  [[nodiscard]] std::uint64_t combine_rounds() const noexcept {
    return rounds_.load(std::memory_order_relaxed);
  }
  // Operations served across all passes; divided by combine_rounds()
  // this is the achieved batch size — the amortization factor.
  [[nodiscard]] std::uint64_t combined_ops() const noexcept {
    return batched_ops_.load(std::memory_order_relaxed);
  }
  // Operations that took the uncontended fast path (lock free, no
  // publication). direct_ops() + combined_ops() == total invocations.
  [[nodiscard]] std::uint64_t direct_ops() const noexcept {
    return direct_ops_.load(std::memory_order_relaxed);
  }

  // Park/wake telemetry from the wrapper's WaitPoint (rung-3 waits).
  // futex_syscalls stays zero as long as every operation completed
  // before any waiter's backoff ladder saturated — in particular, a
  // pure fast-path run performs NO futex syscalls (async_test's
  // AsyncSubmit.SoloSubmitWaitMatchesInvokeOnEveryLayer asserts exactly
  // that on an all-fast-path run).
  [[nodiscard]] ParkStats park_stats() const noexcept {
    return waiters_.value.stats();
  }

  // ---- runtime knobs: Adaptive's two actuators (core/adaptive.hpp
  // drives them; both are relaxed hints, safe to flip while operations
  // are in flight).

  // Election attempts a per-op entry point makes before conceding to
  // the publication path. 1 = historical TAS fast path (the default);
  // 0 = publish-and-batch mode.
  void set_elect_spins(std::uint32_t n) noexcept {
    elect_spins_.value.store(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t elect_spins() const noexcept {
    return elect_spins_.value.load(std::memory_order_relaxed);
  }

  // Wait-rung selection for every blocking site in this wrapper: how
  // many yields a saturated waiter climbs before its first park
  // (forwarded to the wrapper's WaitPoint).
  void set_yields_before_park(int n) noexcept {
    waiters_.value.set_yields_before_park(n);
  }
  [[nodiscard]] int yields_before_park() const noexcept {
    return waiters_.value.yields_before_park();
  }

  // Publication records not currently kFree — the slot-residue probe
  // (mirrors ShmCombining::occupied()). Zero once every invoke has
  // returned and every ticket is collected; the explorer asserts
  // exactly that after every explored schedule.
  [[nodiscard]] std::size_t occupied() const noexcept {
    std::size_t n = 0;
    for (const auto& padded : slots_) {
      if (padded.value.status.load(std::memory_order_acquire) != kFree) ++n;
    }
    return n;
  }
  // Whether some thread holds the combiner election lock (the
  // counterpart of ShmCombining::gate_holder() != 0); the explorer
  // checks it is released after every schedule.
  [[nodiscard]] bool gate_held() const noexcept {
    return lock_.value.load(std::memory_order_acquire);
  }

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

  void reset_stats() noexcept
    requires requires(Obj& o) { o.reset_stats(); }
  {
    obj_.value.reset_stats();
  }

  [[nodiscard]] std::uint64_t commits_by(ProcessId pid, std::size_t i) const
    requires requires(const Obj& o, std::size_t j) { o.commits_by(pid, j); }
  {
    return obj_.value.commits_by(pid, i);
  }

  [[nodiscard]] int consensus_number() const
    requires requires(const Obj& o) { o.consensus_number(); }
  {
    return std::max(obj_.value.consensus_number(), kConsensusNumberTas);
  }

 private:
  // Publication slot lifecycle (shared with the cross-process
  // ShmCombining via core/slot_protocol.hpp): kFree -> kClaimed
  // (publisher owns the record) -> kPending (request visible to
  // combiners) -> kDone (result visible to the publisher) -> kFree.
  static constexpr SlotState kFree = SlotState::kFree;
  static constexpr SlotState kClaimed = SlotState::kClaimed;
  static constexpr SlotState kPending = SlotState::kPending;
  static constexpr SlotState kDone = SlotState::kDone;

  struct Slot {
    std::atomic<SlotState> status{kFree};
    Request request;
    std::optional<SwitchValue> init;
    ModuleResult result;
    // The optional callback the finalizing thread runs: plain fields
    // ordered by the kPending release store like request/init.
    CompletionFn completion = nullptr;
    void* user = nullptr;
  };

  // Tries to elect the caller combiner (test-and-test-and-set); the
  // winning exchange is the counted RMW. The caller owns the lock on
  // success and must release it.
  template <class Ctx>
  bool try_lock(Ctx& ctx) {
    if (!lock_.value.load(std::memory_order_relaxed) &&
        !lock_.value.exchange(true, std::memory_order_acquire)) {
      ctx.on_rmw();
      return true;
    }
    return false;
  }

  // The knob-gated election used by the PER-OP entry points (invoke,
  // submit): up to elect_spins election attempts with a pause between
  // them. The default of 1 is bit-identical to the historical single
  // TAS; 0 turns the direct fast path off entirely, so every
  // contended op publishes and amortizes into a combiner batch —
  // what the adaptive layer selects under sustained contention.
  // Internal liveness sites (claim_or_run's exhaustion fallback,
  // help_combine, invoke_batch) deliberately keep the raw try_lock:
  // at elect_spins == 0 someone must still be able to take the lock
  // or nothing would ever combine.
  template <class Ctx>
  bool try_elect(Ctx& ctx) {
    const std::uint32_t attempts =
        elect_spins_.value.load(std::memory_order_relaxed);
    for (std::uint32_t a = 0; a < attempts; ++a) {
      if (try_lock(ctx)) return true;
      cpu_pause();
    }
    return false;
  }

  // On a won election, runs one combine pass and releases the lock.
  // Every wait loop calls this so a stuck publication can always be
  // served by whoever is waiting on it — with async submitters in the
  // mix, the slot's owner may long since have returned.
  template <class Ctx>
  bool help_combine(Ctx& ctx) {
    if (!try_lock(ctx)) return false;
    combine(ctx);
    lock_.value.store(false, std::memory_order_release);
    // One batched wake per drained slot set: covers every waiter class
    // at once — slots that turned kDone above, lock-waiters, and
    // drain()ers whose scan found no pending record.
    waiters_.value.wake_all();
    return true;
  }

  // Pre: combiner lock held. Runs one operation directly — a batch of
  // one, no publication round trip — serves whatever published
  // meanwhile, and releases the lock. The shared body of the
  // uncontended fast path and the slot-exhaustion fallback below.
  //
  // The completion callback (when given) fires immediately after the
  // op executes, still under the election lock — the same point in
  // the serialization order where a combiner fires published ops'
  // callbacks. That uniformity is load-bearing for layers that react
  // to completions (the caching combinator's invalidation/refill):
  // callbacks across ALL paths fire in linearization order, so a
  // completion-observer sees object states in the order they took
  // effect. The corollary holds on every path too: callbacks must not
  // re-enter this Combining.
  template <class Ctx>
  ModuleResult run_direct(Ctx& ctx, const Request& m,
                          std::optional<SwitchValue> init,
                          CompletionFn completion = nullptr,
                          void* user = nullptr) {
    const ModuleResult r = scm::apply(obj_.value, ctx, m, init);
    if (completion != nullptr) completion(user, r);
    bump(direct_ops_, 1);
    combine(ctx);
    lock_.value.store(false, std::memory_order_release);
    // Uncontended cost of this wake: one fence + one relaxed load —
    // no RMW, no syscall unless somebody actually parked.
    waiters_.value.wake_all();
    return r;
  }

  // Attempts to claim record idx (kFree -> kClaimed; the successful CAS
  // is the counted RMW). A claim above the high-water mark raises it
  // BEFORE the record can turn kPending, so the claimer's own combine
  // passes — and every later drain() — scan far enough to see it. The
  // mark only moves on a record's first-ever claim (at most kSlots
  // times per object), so that CAS is not per-operation traffic and is
  // deliberately uncounted.
  template <class Ctx>
  bool try_claim(Ctx& ctx, std::size_t idx) {
    Slot& slot = slots_[idx].value;
    SlotState expected = kFree;
    if (slot.status.load(std::memory_order_relaxed) != kFree ||
        !slot.status.compare_exchange_strong(expected, kClaimed,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
      return false;
    }
    ctx.on_rmw();
    std::size_t hwm = claimed_hwm_.value.load(std::memory_order_relaxed);
    while (idx >= hwm &&
           !claimed_hwm_.value.compare_exchange_weak(
               hwm, idx + 1, std::memory_order_relaxed,
               std::memory_order_relaxed)) {
    }
    return true;
  }

  // One rotation over the publication array attempting to claim a free
  // record, starting at `hint` (the caller's home slot). Non-blocking:
  // nullopt when every record is busy.
  template <class Ctx>
  std::optional<std::size_t> try_claim_rotation(Ctx& ctx, std::size_t hint) {
    for (std::size_t k = 0; k < kSlots; ++k) {
      const std::size_t idx =
          hint + k < kSlots ? hint + k : hint + k - kSlots;
      if (try_claim(ctx, idx)) return idx;
    }
    return std::nullopt;
  }

  // Shared body of invoke, and of submit on blocking platforms:
  // completes the operation inline — fast path or
  // exhaustion fallback, with the callback fired under the election
  // lock inside run_direct, returning nullopt with *out filled — or
  // claims AND publishes a record, returning its index (the callback
  // then travels with the publication and the serving combiner fires
  // it, likewise under the lock).
  template <class Ctx>
  std::optional<std::size_t> submit_impl(Ctx& ctx, const Request& m,
                                         std::optional<SwitchValue> init,
                                         CompletionFn completion, void* user,
                                         ModuleResult* out) {
    if (try_elect(ctx)) {
      *out = run_direct(ctx, m, init, completion, user);
      return std::nullopt;
    }
    const auto idx = claim_or_run(ctx, m, init, out, completion, user);
    if (idx.has_value()) {
      publish(ctx, slots_[*idx].value, m, init, completion, user);
      return idx;
    }
    return std::nullopt;
  }

  // Either claims a publication record for (m, init) — returning its
  // index, publication left to the caller — or executes the operation
  // inline under the combiner lock, returning nullopt with *out
  // filled.
  //
  // The inline fallback is what keeps async submission LIVE: a kDone
  // record frees only when its owner polls, and under async submission
  // every owner of every record can simultaneously be stuck in a claim
  // loop (none of them can collect its own tickets from there), so
  // waiting for a record to free can deadlock the whole group. The
  // combiner lock, by contrast, always frees in bounded time (holders
  // run one bounded pass and release), so "serve yourself as a batch
  // of one" is always reachable. The home slot is only where the
  // rotation starts: any record serves a publication equally.
  template <class Ctx>
  std::optional<std::size_t> claim_or_run(Ctx& ctx, const Request& m,
                                          std::optional<SwitchValue> init,
                                          ModuleResult* out,
                                          CompletionFn completion = nullptr,
                                          void* user = nullptr) {
    const std::size_t home = static_cast<std::size_t>(ctx.id()) % kSlots;
    for (;;) {
      if (const auto idx = try_claim_rotation(ctx, home)) return idx;
      if (try_lock(ctx)) {
        *out = run_direct(ctx, m, init, completion, user);
        return std::nullopt;
      }
      // Nothing claimable and the lock is held: park until a record
      // frees or the lock does, then retry the races above.
      wait_until(
          ctx,
          [this] {
            if (!lock_.value.load(std::memory_order_relaxed)) return true;
            for (const auto& padded : slots_) {
              if (padded.value.status.load(std::memory_order_relaxed) ==
                  kFree) {
                return true;
              }
            }
            return false;
          },
          waiters_.value);
    }
  }

  // Publishes into a claimed record: the request/init/callback fields
  // are plain writes ordered by the release store of kPending — the
  // operation's one mandatory shared-memory step on this path, and a
  // write to a line only this record's owner and the combiner touch.
  template <class Ctx>
  void publish(Ctx& ctx, Slot& slot, const Request& m,
               std::optional<SwitchValue> init, CompletionFn completion,
               void* user) {
    slot.request = m;
    slot.init = init;
    slot.completion = completion;
    slot.user = user;
    ctx.on_write();
    slot.status.store(kPending, std::memory_order_release);
  }

  // Consumes a kDone slot: reads the result and recycles the record —
  // the publication round trip is over.
  template <class Ctx>
  ModuleResult collect(Ctx& ctx, std::size_t idx) {
    Slot& slot = slots_[idx].value;
    ctx.on_read();
    const ModuleResult r = slot.result;
    slot.status.store(kFree, std::memory_order_release);
    // A freed record is what claim_or_run's exhaustion wait is parked
    // on; collect runs on the publisher (the slow path already), so
    // the wake's fence rides an existing round trip.
    waiters_.value.wake_all();
    return r;
  }

  // Waits for published record idx to be served, then collects it.
  // The waiter elects itself combiner whenever the lock is free
  // (test-and-test-and-set); its own record is pending throughout, so
  // its combine() pass serves at least itself. The wait parks until
  // something can have changed: the record completed, or the lock
  // freed and the election is worth another attempt.
  template <class Ctx>
  ModuleResult await_served(Ctx& ctx, std::size_t idx) {
    Slot& slot = slots_[idx].value;
    for (;;) {
      if (slot.status.load(std::memory_order_acquire) == kDone) break;
      if (help_combine(ctx)) continue;
      wait_until(
          ctx,
          [this, &slot] {
            return slot.status.load(std::memory_order_relaxed) == kDone ||
                   !lock_.value.load(std::memory_order_relaxed);
          },
          waiters_.value);
    }
    return collect(ctx, idx);
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
    Ctx& c = *static_cast<Ctx*>(ctx);
    if (self->slots_[idx].value.status.load(std::memory_order_acquire) !=
        kDone) {
      return false;
    }
    *out = self->collect(c, idx);
    return true;
  }

  template <class Ctx>
  static void ticket_wait(void* source, void* slot, void* ctx,
                          ModuleResult* out) {
    auto* self = static_cast<Combining*>(source);
    const auto idx =
        static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(slot));
    *out = self->await_served(*static_cast<Ctx*>(ctx), idx);
  }

  template <class Ctx>
  static const TicketSource<ModuleResult>& ticket_source() {
    static constexpr TicketSource<ModuleResult> kSource{
        &Combining::ticket_poll<Ctx>, &Combining::ticket_wait<Ctx>};
    return kSource;
  }

  static constexpr std::size_t kNone = kSlots;

  // Index of the first kPending record below the claim high-water mark,
  // or kNone. Records above the mark have never been claimed, so they
  // cannot be pending; a claim racing this scan raises the mark too
  // late to be seen, and that publication waits for the next pass — its
  // publisher retries the election itself, and drain() scans again.
  [[nodiscard]] std::size_t first_pending() const noexcept {
    const std::size_t hwm = claimed_hwm_.value.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < hwm; ++i) {
      if (slots_[i].value.status.load(std::memory_order_relaxed) ==
          kPending) {
        return i;
      }
    }
    return kNone;
  }

  // Whether any record below the mark is kClaimed or kPending. drain()
  // waits out claimed records too: claim and publish are adjacent on
  // every path, so a claimed record is a publication about to turn
  // pending, and a drainer that returned past it could leave it to a
  // publisher that only polls. Acquire: every kFree/kDone status read
  // was released by the thread that served (or collected) that record,
  // so an all-clear carries every served op's effects with it.
  [[nodiscard]] bool any_unserved() const noexcept {
    const std::size_t hwm = claimed_hwm_.value.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < hwm; ++i) {
      const SlotState st =
          slots_[i].value.status.load(std::memory_order_acquire);
      if (st == kClaimed || st == kPending) return true;
    }
    return false;
  }

  // One combiner pass. Runs with the combiner lock held. The common
  // fast-path case — nothing published — costs a relaxed scan of the
  // claimed prefix of the slot array and builds no batch.
  template <class Ctx>
  void combine(Ctx& ctx) {
    const std::size_t first = first_pending();
    if (first != kNone) serve(ctx, first);
  }

  // Pre: record `first` is kPending (only the lock holder moves a
  // record out of kPending, so it stays so). Snapshots the pending
  // slots from `first` on into a batch, drives it through the wrapped
  // object's batch path (specialized for pipelines: one stage-major
  // walk, bulk stats), then publishes each result back to its slot.
  template <class Ctx>
  void serve(Ctx& ctx, std::size_t first) {
    const std::size_t hwm = claimed_hwm_.value.load(std::memory_order_relaxed);
    std::array<OpSlot, kSlots> batch;
    std::array<std::size_t, kSlots> owner{};
    std::size_t n = 0;
    for (std::size_t i = first; i < hwm; ++i) {
      Slot& s = slots_[i].value;
      if (s.status.load(std::memory_order_acquire) != kPending) continue;
      ctx.on_read();
      batch[n].request = s.request;
      batch[n].init = s.init;
      batch[n].done = false;
      owner[n] = i;
      ++n;
    }

    run_batch(obj_.value, ctx, std::span<OpSlot>(batch.data(), n));

    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slots_[owner[i]].value;
      // The finalizing thread runs the publisher's callback, with the
      // election lock held — callbacks must not re-enter this wrapper.
      if (s.completion != nullptr) s.completion(s.user, batch[i].result);
      s.result = batch[i].result;
      ctx.on_write();
      s.status.store(kDone, std::memory_order_release);
    }
    bump(rounds_, 1);
    bump(batched_ops_, n);
  }

  std::array<Padded<Slot>, kSlots> slots_;
  Padded<std::atomic<bool>> lock_{};  // combiner election (TAS)
  // One past the highest record index ever claimed: combiners and
  // drain() scan only this prefix. Monotonic, written only when a claim
  // lands above it, so after warm-up it is a read-only line.
  Padded<std::atomic<std::size_t>> claimed_hwm_{};
  // Rung-3 parking for every wait loop above (process-private futex).
  // One point for the whole wrapper: wakes are per-combine-pass, not
  // per-slot, so a finer grain would buy nothing but syscalls.
  Padded<WaitPoint<>> waiters_{};
  // Read-mostly election knob on its own line: every per-op entry
  // loads it; only adaptive reconfigurations write it.
  Padded<std::atomic<std::uint32_t>> elect_spins_{std::in_place, 1u};
  Padded<Obj> obj_;
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> batched_ops_{0};
  std::atomic<std::uint64_t> direct_ops_{0};
};

}  // namespace scm
