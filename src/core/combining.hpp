// Flat-combining composition (the batching counterpart of Sharded's
// replication): wrap any ComposableModule in a publication array and
// let ONE elected combiner execute everyone's pending requests through
// the batch invocation path (core/batch.hpp).
//
// Combining<Obj, kSlots> is a combinator, not an algorithm: each
// operation publishes its request into a one-cache-line slot (one
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
// ladder against the wrapper's WaitPoint (support/parking.hpp), and the
// uncontended fast path performs no futex syscall at all, while the
// deterministic simulator parks the process on the wait predicate — so
// this class runs under SimPlatform as shipped and
// combining_explore_test enumerates its interleavings. The slot
// transitions and their counted steps are core/slot_protocol.hpp's;
// this wrapper adds one counted step, the winning election exchange.
// That is the whole RMW budget: a fast-path op pays one (the election),
// a published op two (claim + whoever wins the election serving it).
// The election lock's failed pre-test loads and release store are
// uncounted: under the simulator each such access is adjacent to a
// counted scheduling point, so no interleaving class is lost — only
// equivalent schedules collapse, which keeps exhaustive exploration
// tractable.
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

// A Combining record's `extra` (core/slot_protocol.hpp): the optional
// callback the finalizing thread runs.
struct SlotCompletion {
  CompletionFn fn = nullptr;
  void* user = nullptr;

  void complete(const ModuleResult& result) const {
    if (fn != nullptr) fn(user, result);
  }
};

template <class Obj, std::size_t kSlots>
class Combining : public detail::CombiningConsensusBase<Obj>,
                  public detail::ShardedDepthBase<Obj> {
  using Slots = SlotArray<SlotCompletion, kSlots>;

 public:
  static constexpr std::size_t kSlotCount = kSlots;

  // The publication protocol (core/slot_protocol.hpp), exposed so
  // tests can assert this wrapper and the cross-process ShmCombining
  // compile against the SAME state machine and record payload.
  using slot_state = SlotState;
  using slot_payload = SlotPayload;
  static constexpr std::size_t kSlotBytes = sizeof(typename Slots::Record);

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
    SCM_CHECK_MSG(slots_.occupied() == 0,
                  "Combining destroyed with an occupied publication slot "
                  "(outstanding Ticket)");
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
    const auto idx = submit_impl(ctx, m, init, {}, &inline_result);
    return idx.has_value() ? await_served(ctx, *idx) : inline_result;
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
  // Combining. On awaitable contexts (the simulator) submit() is
  // invoke() plus a ready ticket: the simulator explores invoke()'s
  // publication round trip through await, and pending tickets stay a
  // native-thread surface.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  Ticket<ModuleResult> submit(Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init = std::nullopt,
                              CompletionFn completion = nullptr,
                              void* user = nullptr) {
    if constexpr (detail::context_can_await_v<Ctx>) {
      const ModuleResult r = invoke(ctx, m, init);
      if (completion != nullptr) completion(user, r);
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
  // wait for other threads to collect their tickets. A no-op on
  // awaitable contexts, where submit() leaves nothing pending.
  template <class Ctx>
  void drain(Ctx& ctx) {
    if constexpr (!detail::context_can_await_v<Ctx>) {
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
    return slots_.rounds();
  }
  // Operations served across all passes; divided by combine_rounds()
  // this is the achieved batch size — the amortization factor.
  [[nodiscard]] std::uint64_t combined_ops() const noexcept {
    return slots_.batched_ops();
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
    return slots_.occupied();
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

  // Releases the election lock with one batched wake: it covers every
  // waiter class at once — records that turned kDone, lock-waiters,
  // and drain()ers. Uncontended cost: one fence + one relaxed load, no
  // RMW, no syscall unless somebody actually parked.
  void unlock() noexcept {
    lock_.value.store(false, std::memory_order_release);
    waiters_.value.wake_all();
  }

  // The knob-gated election used by the PER-OP entry points (invoke,
  // submit): up to elect_spins election attempts with a pause between
  // them. The default of 1 is bit-identical to the historical single
  // TAS; 0 turns the direct fast path off entirely, so every
  // contended op publishes and amortizes into a combiner batch —
  // what the adaptive layer selects under sustained contention.
  // Internal liveness sites (claim_or_run's exhaustion fallback,
  // help_combine) deliberately keep the raw try_lock: at
  // elect_spins == 0 someone must still be able to take the lock or
  // nothing would ever combine.
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
    slots_.combine(obj_.value, ctx);
    unlock();
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
                          const SlotCompletion& completion) {
    const ModuleResult r = scm::apply(obj_.value, ctx, m, init);
    completion.complete(r);
    bump(direct_ops_, 1);
    slots_.combine(obj_.value, ctx);
    unlock();
    return r;
  }

  // Shared body of invoke, and of submit on blocking platforms:
  // completes the operation inline — fast path or exhaustion
  // fallback, with the callback fired under the election lock inside
  // run_direct, returning nullopt with *out filled — or claims AND
  // publishes a record, returning its index (the callback then
  // travels with the publication and the serving combiner fires it,
  // likewise under the lock).
  template <class Ctx>
  std::optional<std::size_t> submit_impl(Ctx& ctx, const Request& m,
                                         std::optional<SwitchValue> init,
                                         const SlotCompletion& completion,
                                         ModuleResult* out) {
    if (try_elect(ctx)) {
      *out = run_direct(ctx, m, init, completion);
      return std::nullopt;
    }
    const auto idx = claim_or_run(ctx, m, init, completion, out);
    if (idx.has_value()) slots_.publish(ctx, *idx, 0, m, init, completion);
    return idx;
  }

  // Either claims a publication record — returning its index,
  // publication left to the caller — or executes the operation inline
  // under the combiner lock, returning nullopt with *out filled.
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
                                          const SlotCompletion& completion,
                                          ModuleResult* out) {
    const std::size_t home = static_cast<std::size_t>(ctx.id()) % kSlots;
    for (;;) {
      if (const auto idx = slots_.try_claim(ctx, home, 0)) return idx;
      if (try_lock(ctx)) {
        *out = run_direct(ctx, m, init, completion);
        return std::nullopt;
      }
      // Nothing claimable and the lock is held: park until a record
      // frees or the lock does, then retry the races above.
      wait_until(
          ctx,
          [this] {
            return !lock_.value.load(std::memory_order_relaxed) ||
                   slots_.occupied() < kSlots;
          },
          waiters_.value);
    }
  }

  // Collects a kDone record, then wakes claim_or_run's exhaustion
  // wait; collect runs on the publisher (the slow path already), so
  // the wake's fence rides an existing round trip.
  template <class Ctx>
  ModuleResult collect(Ctx& ctx, std::size_t idx) {
    const ModuleResult r = slots_.collect(ctx, idx);
    waiters_.value.wake_all();
    return r;
  }

  // Waits for published record idx to be served, then collects it.
  // The waiter elects itself combiner whenever the lock is free
  // (test-and-test-and-set); its own record is pending throughout, so
  // its combine pass serves at least itself. The wait parks until
  // something can have changed: the record completed, or the lock
  // freed and the election is worth another attempt.
  template <class Ctx>
  ModuleResult await_served(Ctx& ctx, std::size_t idx) {
    while (!slots_.done(idx)) {
      if (help_combine(ctx)) continue;
      wait_until(
          ctx,
          [this, idx] {
            return slots_.done(idx) ||
                   !lock_.value.load(std::memory_order_relaxed);
          },
          waiters_.value);
    }
    return collect(ctx, idx);
  }

  // Whether any record is kClaimed or kPending. drain() waits out
  // claimed records too: claim and publish are adjacent on every path,
  // so a claimed record is a publication about to turn pending, and a
  // drainer that returned past it could leave it to a publisher that
  // only polls.
  [[nodiscard]] bool any_unserved() const noexcept {
    return slots_.count_below_mark(SlotState::kClaimed,
                                   SlotState::kPending) != 0;
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
    if (!self->slots_.done(idx)) return false;
    *out = self->collect(*static_cast<Ctx*>(ctx), idx);
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

  Slots slots_;
  Padded<std::atomic<bool>> lock_{};  // combiner election (TAS)
  // Rung-3 parking for every wait loop above (process-private futex).
  // One point for the whole wrapper: wakes are per-combine-pass, not
  // per-slot, so a finer grain would buy nothing but syscalls.
  Padded<WaitPoint<>> waiters_{};
  // Read-mostly election knob on its own line: every per-op entry
  // loads it; only adaptive reconfigurations write it.
  Padded<std::atomic<std::uint32_t>> elect_spins_{std::in_place, 1u};
  Padded<Obj> obj_;
  std::atomic<std::uint64_t> direct_ops_{0};
};

}  // namespace scm
