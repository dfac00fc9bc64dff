// Async submission layer: the completion handle shared by every
// composition layer's submit/complete surface.
//
// The paper pays composition cost synchronously — every operation
// walks the switch plumbing and blocks until its chain commits. A
// Combining publication slot, however, already IS a one-operation
// future: the publisher's request sits in shared memory until a
// combiner writes the result back. Ticket<R> detaches the wait loop
// from that round trip: submit() publishes and returns a handle, and
// the publisher polls or waits at its leisure (Perrin et al.'s
// completion-driven sequentially consistent composition, Cadambe et
// al.'s phase-decoupled coded atomic memory — the same move applied to
// the paper's composition chains).
//
// A Ticket is one of:
//   * READY   — the result is stored inline. Synchronous layers
//     (Pipeline, Sharded over a synchronous replica, an uncontended
//     Combining fast path, any layer on the step-granting simulator)
//     complete inline and hand back ready tickets, so the
//     submit/complete surface is uniform without a second queue
//     mechanism.
//   * PENDING — the operation lives in a publication slot owned by an
//     asynchronous source (Combining). poll()/wait() go through the
//     bound TicketSource vtable; wait() HELPS the source make progress
//     (the caller may elect itself combiner), so a pending ticket
//     completes even if no other thread ever runs.
//   * EMPTY   — default-constructed, moved-from, or consumed.
//
// Ownership: a ticket is owned by the submitting thread. It binds the
// submitting context (step counters accrue there), is move-only, and
// is not itself thread-safe — hand it to another thread only together
// with its context. Dropping a pending ticket is safe: the destructor
// waits out the operation and discards the result, so a publication
// slot can never leak. (A Combining destroyed while a ticket is still
// outstanding is the programming error its destructor assertion
// catches.)
//
// Completion callbacks: submit() optionally carries a CompletionFn
// that the COMPLETING thread runs — the combiner for published
// operations, the submitter itself on inline-complete paths.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/module.hpp"
#include "support/assert.hpp"

namespace scm {

// Completion callback: run exactly once with the operation's final
// result by whichever thread finalizes it. Function pointer + user
// cookie, not std::function — the publication hot path allocates
// nothing. Combiner-run callbacks execute while the combiner lock is
// held: they must not re-enter the owning Combining.
using CompletionFn = void (*)(void* user, const ModuleResult& result);

namespace detail {

// Contexts whose on_*() hooks may block the calling OS thread are the
// only ones that can run publication round trips (the simulator's
// step-granting scheduler cannot express a spin on combiner progress).
// NativeContext opts in via `static constexpr bool kCanBlock = true`;
// everything else — SimContext in particular — defaults to inline
// completion.
template <class Ctx, class = void>
struct context_can_block : std::false_type {};

template <class Ctx>
struct context_can_block<Ctx, std::void_t<decltype(Ctx::kCanBlock)>>
    : std::bool_constant<Ctx::kCanBlock> {};

template <class Ctx>
inline constexpr bool context_can_block_v = context_can_block<Ctx>::value;

}  // namespace detail

// Public name for the blocking-context trait: layers outside this
// header (core/adaptive.hpp gates its monitor ticks on it, so the
// deterministic simulator never observes wall-clock-dependent
// reconfiguration) key behavior on the same opt-in NativeContext uses.
template <class Ctx>
inline constexpr bool context_can_block_v = detail::context_can_block_v<Ctx>;

// Type-erased completion source of a pending ticket: two functions
// instantiated by the issuing layer for the (source, context) pair the
// ticket was created under. Erased by hand (function pointers into a
// static table) rather than virtually — tickets are created on hot
// paths and must cost no allocation.
template <class R>
struct TicketSource {
  // Non-blocking: if the operation has completed, consume it (fill
  // *out, release the slot) and return true.
  bool (*poll)(void* source, void* slot, void* ctx, R* out);
  // Blocking: help the source until the operation completes, then
  // consume it into *out.
  void (*wait)(void* source, void* slot, void* ctx, R* out);
};

template <class R = ModuleResult>
class Ticket {
 public:
  // Empty handle (moved-from / consumed state).
  Ticket() = default;

  // Already-completed submission: the uniform fast-path / synchronous
  // adapter result.
  [[nodiscard]] static Ticket ready(R result) {
    Ticket t;
    t.state_ = State::kReady;
    t.result_ = std::move(result);
    return t;
  }

  // Pending submission bound to `slot` of `source`, completed through
  // `ops` with the submitting context `ctx`.
  Ticket(const TicketSource<R>* ops, void* source, void* slot,
         void* ctx) noexcept
      : ops_(ops), source_(source), slot_(slot), ctx_(ctx),
        state_(State::kPending) {}

  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;

  Ticket(Ticket&& other) noexcept { steal(other); }
  Ticket& operator=(Ticket&& other) noexcept {
    if (this != &other) {
      settle();
      steal(other);
    }
    return *this;
  }

  // A dropped ticket waits out its operation (helping, so this cannot
  // deadlock solo) and discards the result: slots never leak, results
  // are simply lost (a completion callback still sees them).
  ~Ticket() { settle(); }

  // Whether this handle still refers to an operation (pending or ready
  // but unconsumed).
  [[nodiscard]] bool valid() const noexcept {
    return state_ != State::kEmpty;
  }

  // Non-consuming completion check: true once the result is available
  // via try_result()/wait(). Pending slots are consumed into the
  // ticket's inline storage on the first successful poll.
  [[nodiscard]] bool poll() {
    if (state_ == State::kPending &&
        ops_->poll(source_, slot_, ctx_, &result_)) {
      state_ = State::kReady;
    }
    return state_ == State::kReady;
  }

  // Consumes and returns the result if complete, std::nullopt
  // otherwise (the ticket stays valid and can be polled again).
  [[nodiscard]] std::optional<R> try_result() {
    if (!poll()) return std::nullopt;
    state_ = State::kEmpty;
    return std::move(result_);
  }

  // Blocks (helping the source) until complete, consumes the result.
  [[nodiscard]] R wait() {
    SCM_CHECK_MSG(valid(), "Ticket::wait on an empty/consumed ticket");
    if (state_ == State::kPending) {
      ops_->wait(source_, slot_, ctx_, &result_);
    }
    state_ = State::kEmpty;
    return std::move(result_);
  }

 private:
  enum class State : std::uint8_t { kEmpty, kPending, kReady };

  void steal(Ticket& other) noexcept {
    ops_ = other.ops_;
    source_ = other.source_;
    slot_ = other.slot_;
    ctx_ = other.ctx_;
    state_ = other.state_;
    result_ = std::move(other.result_);
    other.state_ = State::kEmpty;
  }

  void settle() {
    if (state_ == State::kPending) {
      ops_->wait(source_, slot_, ctx_, &result_);
    }
    state_ = State::kEmpty;
  }

  const TicketSource<R>* ops_ = nullptr;
  void* source_ = nullptr;
  void* slot_ = nullptr;
  void* ctx_ = nullptr;
  State state_ = State::kEmpty;
  R result_{};
};

}  // namespace scm
