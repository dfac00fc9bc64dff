// The publication-slot protocol of every combining executor: one
// record type, one array type, every slot transition, and the one
// combining core around them, written once.
//
// Two executors run this code: the in-process flat-combining wrapper
// (core/combining.hpp), whose core lives inside one process, and the
// cross-process ShmCombining (shm/shm_combining.hpp), whose core lives
// inside a shared-memory segment. Both explorer suites
// (combining_explore_test, slot_protocol_explore_test) therefore check
// the same claim, publish, serve, collect, election and wait code.
//
// Lifecycle of one publication record, and what its payload holds:
//
//   kFree ──CAS──▶ kClaimed ──release──▶ kPending ──release──▶ kDone
//     ▲   (publisher owns     (request visible      (result visible
//     │    the record)         to combiners)         to the publisher)
//     └──────────────────────── release ◀────────────────────────┘
//                       (publisher collects, record recycles)
//
//   state     payload (SlotPayload)  written by
//   kFree     stale                  —
//   kClaimed  request + init         the publisher, before kPending
//   kPending  request + init         nobody (combiners snapshot it)
//   kDone     result                 the combiner, before kDone
//
// kClaimed exists so a colliding publisher can never observe a
// half-written request: a combiner only reads records it sees as
// kPending, and the kPending store releases the plain request/init
// writes before it. std::atomic on a lock-free 32-bit word is
// address-free, so the same acquire/release pairs order accesses
// between mappings of one physical page at different virtual addresses.
//
// The record is one cache line: {word, has_init, payload, extra}. The
// word packs the state (low 2 bits) with an owner id (high 30 bits), so
// the claim CAS and the ownership stamp are one indivisible step and a
// reclaim sweep never sees a claimed record under a previous owner's
// name. `extra` is the executor's per-record companion: Combining's
// completion callback, nothing for ShmCombining.
//
// Around the array sits CombiningCore: the election gate (a 32-bit
// holder word) on one line with the three counters only its holder
// writes, the WaitPoint every blocking site parks on, the direct fast
// path, the combine-if-free pass, the served-wait loop and drain(). A
// direct op holds the gate for the op and its completion alone, so it
// writes one line of the core, the gate's: the winning CAS fetches it,
// the direct-op count rides that fetch, and the release store ends the
// hold. Only after the release does it scan the records, and it serves
// what it finds with a combine-if-free pass of its own, whose round
// counts ride that pass's release store. What each executor keeps for
// itself is policy, not protocol:
//   - Combining holds the gate as 1 and stamps owner 0 (a thread cannot
//     vanish mid-publication), makes up to elect_spins attempts at the
//     gate per op, so a short hold is waited out rather than paid for
//     with a publication, and serves an op inline when every record is
//     taken;
//   - ShmCombining holds the gate and stamps records with the caller's
//     pid, lets a publisher opt out of combining (may_combine), waits
//     when every record is taken, and has reclaim_dead take the gate
//     from a dead holder.
// Each passes its own drain() predicate: Combining also waits out
// kClaimed records, ShmCombining only kPending ones (a dead publisher's
// kClaimed record never clears until reclaim_dead).
//
// Counted accesses go through the context's accessors
// (runtime/context.hpp) and are the simulator's scheduling points:
//   - the winning gate CAS and the winning claim CAS (ctx.late_cas: the
//     step after the CAS, and only when it wins);
//   - the publish store of kPending (ctx.store), whose release
//     publishes the plain request writes before it;
//   - a combiner's read of each pending request (ctx.read) and its
//     kDone store, which keeps the owner (ctx.store of next(word));
//   - the publisher's result read (ctx.read).
// Everything else is coarse: uncounted, and marked
// `scm-lint: coarse (<reason>)` where it stands (lint rule 7):
//   - the relaxed pre-tests before the gate and claim CASes, and every
//     CAS that loses;
//   - the claim mark's load and CAS loop (at most kSlots raises per
//     array);
//   - the gate's release() store, and collect()'s kFree store;
//   - the scans: first_pending, count_below_mark, occupied, done(),
//     serve's state check and the gate probes (holder, looks_free);
//   - the telemetry readers (direct_ops, combined_ops, combine_rounds).
// Under the simulator each coarse access sits next to a counted
// scheduling point, so no interleaving class is lost; only equivalent
// schedules collapse, which keeps exhaustive exploration tractable.
//
// The direct op's release, its scan and its serving CAS are one such
// run: the simulator executes them with no other process in between,
// while natively another process can take the gate after the release.
// All the intruder can change is whether the releaser serves: its scan
// finds the record already served, or its CAS fails, an uncounted read
// that changes nothing. Either way the releaser returns without serving
// and the record is the intruder's. That native run ends like an
// explored one in which the publish step comes after the releaser's
// run, so its scan finds nothing, and the intruder's CAS comes next.
// The native publisher only invoked earlier, which widens its op's
// interval and so cannot make a linearizable history fail.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "core/batch.hpp"
#include "core/module.hpp"
#include "history/request.hpp"
#include "runtime/wait.hpp"
#include "shm/shm_layout.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"
#include "support/tally.hpp"

namespace scm {

// ---- the record payload ----------------------------------------------
//
// A record never needs its request and its result at once: the combiner
// snapshots every kPending request into its batch before it writes any
// result back, and the publisher reads the result only after kDone. So
// the two share one union.
//
// `init` is meaningful iff the record's has_init flag is set; the flag
// sits beside the word rather than inside a std::optional, whose layout
// is not guaranteed segment-safe. `init` comes first so it shares bytes
// with the result's outcome: a combiner that read it after writing the
// result would hand the op a wrong init, which the seeded-init tests of
// combining_test and shm_test catch.
struct SlotRequest {
  SwitchValue init = 0;
  Request request;
};

union SlotPayload {
  SlotPayload() : published{} {}

  SlotRequest published;  // live in kClaimed/kPending
  ModuleResult result;    // live in kDone
};

// 40 bytes: with the 4-byte word, has_init and Combining's 16-byte
// callback, a record is exactly 64.
static_assert(sizeof(SlotPayload) == 40);

// ---- seeded protocol mutation (kill-the-mutant gate) ---------------
//
// Compiling with -DSCM_MUTATE_SLOT_PROTOCOL plants ONE deliberate
// protocol bug in SlotArray::try_claim: the ownership stamp is dropped
// from the claim CAS, so a record claimed by a process that then dies
// carries owner 0 and the reclaim sweep — which must skip unowned
// records — can never free it. This exists to prove the verification
// layer has teeth: the slot_mutation_catch CTest entry compiles
// ShmCombining's explorer suite with the flag and EXPECTS its claim
// kill-point test to fail (WILL_FAIL). Never define the flag in a
// shipping build; the constant keeps the mutation a plain `if`.
#if defined(SCM_MUTATE_SLOT_PROTOCOL)
inline constexpr bool kMutateDropOwnerStamp = true;
#else
inline constexpr bool kMutateDropOwnerStamp = false;
#endif

enum class SlotState : std::uint32_t {
  kFree = 0,     // recyclable; the only state a claim CAS fires from
  kClaimed = 1,  // a publisher owns the record and is writing into it
  kPending = 2,  // request visible; exactly one combiner will serve it
  kDone = 3,     // result visible; the publisher collects and recycles
};

// ---- owner-tagged slot words ---------------------------------------

// Owners are below this bound. Linux caps pid_max at 2^22, so every pid
// fits; the executor that stamps pids checks it.
inline constexpr std::uint32_t kSlotOwnerLimit = 1u << 30;

[[nodiscard]] constexpr std::uint32_t pack_slot(SlotState state,
                                                std::uint32_t owner) noexcept {
  return static_cast<std::uint32_t>(state) | (owner << 2);
}

[[nodiscard]] constexpr SlotState slot_state_of(std::uint32_t word) noexcept {
  return static_cast<SlotState>(word & 3u);
}

[[nodiscard]] constexpr std::uint32_t slot_owner_of(
    std::uint32_t word) noexcept {
  return word >> 2;
}

static_assert(pack_slot(SlotState::kFree, 0) == 0,
              "zero-initialized slot words must read as free/unowned");
static_assert(pack_slot(SlotState::kDone, 0) ==
                  static_cast<std::uint32_t>(SlotState::kDone),
              "owner 0 leaves the word equal to its state");

// ---- executor telemetry ---------------------------------------------
//
// Both executors count direct ops, combine rounds and batched ops in
// counters whose single writer is the election-lock (gate) holder; the
// lock's acquire orders each holder after the previous one's stores, so
// each count is a bump() (support/tally.hpp): a relaxed load+store
// that loses nothing and needs no RMW. The counters ride the gate's
// cache line (CombiningCore::GateLine), which the holder owns anyway:
// the direct-op count is bumped right after the winning CAS, a combine
// pass's round counts right before its release store, so neither
// costs a line transfer of its own. (A gate stolen from a dead
// ShmCombining holder may miss that holder's last bumps; a batch cut
// short by a crash is unaccountable anyway.) Readers load them
// relaxed, off the hot path.

// ---- the record and the array ---------------------------------------

// An empty `extra`: a record that carries nothing besides the protocol.
struct SlotNoExtra {
  void complete(const Request& /*request*/,
                const ModuleResult& /*result*/) const noexcept {}
};

// One publication record, exactly one cache line, so distinct
// publishers write distinct lines and a published op moves one line
// each way. The plain fields are ordered by the word's release stores.
template <class Extra>
struct alignas(kCacheLineSize) SlotRecord {
  std::atomic<std::uint32_t> word{0};  // pack_slot(kFree, 0)
  bool has_init = false;
  SlotPayload payload;
  Extra extra;
};

// The publication array and its transitions. Pre-conditions name who
// may call what: claim and publish belong to the publisher, combine to
// whoever holds the election gate, collect to the record's owner once
// it is done.
template <class Extra, std::size_t kSlots>
class SlotArray {
  static_assert(kSlots >= 1, "a combining wrapper needs at least one slot");

 public:
  using Record = SlotRecord<Extra>;
  static_assert(sizeof(Record) == kCacheLineSize,
                "a publication record must fill exactly one cache line");

  // One rotation from `hint` attempting kFree -> kClaimed under
  // `owner`'s stamp; the successful CAS is the counted RMW. Non-blocking:
  // nullopt when every record is taken. A claim at or above the mark
  // raises it before the record can turn kPending, so every later scan
  // that needs to see the record does. The mark moves only on a
  // record's first claim (at most kSlots times per array), so that CAS
  // is uncounted.
  template <class Ctx>
  std::optional<std::size_t> try_claim(Ctx& ctx, std::size_t hint,
                                       std::uint32_t owner) {
    const std::uint32_t claimed =
        pack_slot(SlotState::kClaimed, kMutateDropOwnerStamp ? 0 : owner);
    for (std::size_t k = 0; k < kSlots; ++k) {
      const std::size_t idx = hint + k < kSlots ? hint + k : hint + k - kSlots;
      std::atomic<std::uint32_t>& word = records_[idx].word;
      std::uint32_t expected = pack_slot(SlotState::kFree, 0);
      // scm-lint: coarse (pre-test)
      if (word.load(std::memory_order_relaxed) != expected ||
          !ctx.late_cas(word, expected, claimed, std::memory_order_acquire,
                        std::memory_order_relaxed)) {
        continue;
      }
      // scm-lint: coarse (claim mark: at most kSlots raises per array)
      std::size_t mark = mark_.load(std::memory_order_relaxed);
      while (idx >= mark &&
             // scm-lint: coarse (claim mark)
             !mark_.compare_exchange_weak(mark, idx + 1,
                                          std::memory_order_relaxed,
                                          std::memory_order_relaxed)) {
      }
      return idx;
    }
    return std::nullopt;
  }

  // Pre: the caller claimed `idx`. The request fields are plain writes
  // released by the kPending store; `owner` rides in the word so a
  // reclaimer knows whose publication this is.
  template <class Ctx>
  void publish(Ctx& ctx, std::size_t idx, std::uint32_t owner,
               const Request& m, std::optional<SwitchValue> init,
               const Extra& extra) {
    Record& r = records_[idx];
    r.has_init = init.has_value();
    r.payload.published = SlotRequest{init.value_or(SwitchValue{0}), m};
    r.extra = extra;
    ctx.store(r.word, pack_slot(SlotState::kPending, owner),
              std::memory_order_release);
  }

  [[nodiscard]] bool done(std::size_t idx) const noexcept {
    // scm-lint: coarse (wait predicate; the result read is counted)
    return slot_state_of(records_[idx].word.load(std::memory_order_acquire)) ==
           SlotState::kDone;
  }

  // Pre: done(idx), and the caller owns the record. Reads the result and
  // recycles the record; the caller wakes whoever waits for a free one.
  template <class Ctx>
  ModuleResult collect(Ctx& ctx, std::size_t idx) {
    Record& r = records_[idx];
    const ModuleResult result = ctx.read(r.payload.result);
    // scm-lint: coarse (the kFree store rides the counted result read)
    r.word.store(pack_slot(SlotState::kFree, 0), std::memory_order_release);
    return result;
  }

  // One combiner pass; pre: the caller holds the election gate, which
  // is what keeps a kPending record pending until served.
  // Nothing published costs a relaxed scan below the mark and builds no
  // batch. Otherwise the pending requests are snapshotted into a local
  // batch, run_batch runs them through `obj` one op at a time, and each
  // result is written back over its request. Each record's `extra`
  // completes before its kDone store, handed the batch's snapshot of
  // the request (the record's own copy is gone under the result), and
  // that store keeps the publisher's owner, so a publisher that died
  // waiting still has its name on the record. Returns how many ops the
  // pass served.
  template <class Obj, class Ctx>
  std::size_t combine(Obj& obj, Ctx& ctx) {
    const std::size_t first = first_pending();
    return first != kSlots ? serve(obj, ctx, first) : 0;
  }

  // Whether a record below the mark looks kPending: the relaxed scan a
  // combine pass starts with, for a caller that does not hold the gate
  // and takes it only when the scan finds something.
  [[nodiscard]] bool any_pending() const noexcept {
    return first_pending() != kSlots;
  }

  // Records below the mark in state `a` or `b`. Acquire: every other
  // state a record reads was released by whoever served or collected
  // it, so a zero count carries every served op's effects with it.
  [[nodiscard]] std::size_t count_below_mark(SlotState a,
                                             SlotState b) const noexcept {
    // scm-lint: coarse (scan)
    const std::size_t mark = mark_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    for (std::size_t i = 0; i < mark; ++i) {
      const SlotState s =
          // scm-lint: coarse (scan)
          slot_state_of(records_[i].word.load(std::memory_order_acquire));
      if (s == a || s == b) ++n;
    }
    return n;
  }

  // Records not kFree, over the whole array: a claimer that died
  // between its claim CAS and its mark raise leaves a kClaimed record
  // above the mark.
  [[nodiscard]] std::size_t occupied() const noexcept {
    std::size_t n = 0;
    for (const Record& r : records_) {
      // scm-lint: coarse (scan)
      if (slot_state_of(r.word.load(std::memory_order_acquire)) !=
          SlotState::kFree) {
        ++n;
      }
    }
    return n;
  }

  [[nodiscard]] std::array<Record, kSlots>& records() noexcept {
    return records_;
  }

 private:
  // Index of the first kPending record below the mark, or kSlots. A
  // claim racing this scan raises the mark too late to be seen, and
  // that publication waits for the next pass.
  [[nodiscard]] std::size_t first_pending() const noexcept {
    // scm-lint: coarse (scan)
    const std::size_t mark = mark_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < mark; ++i) {
      // scm-lint: coarse (scan)
      if (slot_state_of(records_[i].word.load(std::memory_order_relaxed)) ==
          SlotState::kPending) {
        return i;
      }
    }
    return kSlots;
  }

  // Pre: record `first` is kPending. The pass scans below the mark it
  // reads here: a record first claimed during the pass is served by the
  // next one. Returns the batch size.
  template <class Obj, class Ctx>
  std::size_t serve(Obj& obj, Ctx& ctx, std::size_t first) {
    // scm-lint: coarse (scan)
    const std::size_t mark = mark_.load(std::memory_order_relaxed);
    std::array<OpSlot, kSlots> batch;
    std::array<std::size_t, kSlots> source{};
    std::size_t n = 0;
    for (std::size_t i = first; i < mark; ++i) {
      Record& r = records_[i];
      // scm-lint: coarse (scan; the request read is counted)
      if (slot_state_of(r.word.load(std::memory_order_acquire)) !=
          SlotState::kPending) {
        continue;
      }
      const SlotRequest& published = ctx.read(r.payload.published);
      batch[n].request = published.request;
      batch[n].init = r.has_init
                          ? std::optional<SwitchValue>(published.init)
                          : std::nullopt;
      source[n] = i;
      ++n;
    }

    run_batch(obj, ctx, std::span<OpSlot>(batch.data(), n));

    for (std::size_t i = 0; i < n; ++i) {
      Record& r = records_[source[i]];
      r.extra.complete(batch[i].request, batch[i].result);
      r.payload.result = batch[i].result;
      // kDone keeps the publisher's owner, read from the word after the
      // step.
      ctx.store(
          r.word,
          [](std::uint32_t w) {
            return pack_slot(SlotState::kDone, slot_owner_of(w));
          },
          std::memory_order_release);
    }
    return n;
  }

  std::array<Record, kSlots> records_{};
  // One past the highest record index ever claimed: combiners and the
  // below-mark scans look only at this prefix. Monotonic, so after
  // warm-up it is a read-only line.
  alignas(kCacheLineSize) std::atomic<std::size_t> mark_{0};
};

// ---- the election gate -----------------------------------------------
//
// One 32-bit holder word, 0 = free: the combiner election of both
// executors. The holder stamps an id — Combining 1, ShmCombining the
// holder's pid — so ShmCombining::reclaim_dead can tell a busy gate
// from one a dead process left held, and steal the latter.
// Acquiring is test-and-test-and-set: a relaxed pre-test, then the CAS;
// only the winning CAS is a counted step.
class ElectionGate {
 public:
  template <class Ctx>
  bool try_acquire(Ctx& ctx, std::uint32_t self) {
    std::uint32_t expected = 0;
    // scm-lint: coarse (pre-test)
    if (holder_.load(std::memory_order_relaxed) == 0 &&
        ctx.late_cas(holder_, expected, self, std::memory_order_acquire,
                     std::memory_order_relaxed)) {
      return true;
    }
    return false;
  }

  // Takes the gate if it is free, or steals it from a holder that
  // `alive(holder)` reports dead. Fails when a live process holds it,
  // or when anyone else got there first (the CAS).
  template <class Ctx, class Alive>
  bool take_or_steal(Ctx& ctx, std::uint32_t self, Alive&& alive) {
    // scm-lint: coarse (pre-test)
    std::uint32_t holder = holder_.load(std::memory_order_acquire);
    if (holder != 0 && alive(holder)) return false;
    return ctx.late_cas(holder_, holder, self, std::memory_order_acquire,
                        std::memory_order_relaxed);
  }

  void release() noexcept {
    holder_.store(0, std::memory_order_release);  // scm-lint: coarse (release)
  }

  // The holder's id, 0 when free.
  [[nodiscard]] std::uint32_t holder() const noexcept {
    // scm-lint: coarse (probe)
    return holder_.load(std::memory_order_acquire);
  }
  // Relaxed probe for wait predicates; the waiter re-validates with the
  // CAS once the predicate holds.
  [[nodiscard]] bool looks_free() const noexcept {
    // scm-lint: coarse (wait predicate)
    return holder_.load(std::memory_order_relaxed) == 0;
  }

 private:
  std::atomic<std::uint32_t> holder_{0};
};

// One 4-byte word: the holder is a 32-bit pid, the same id the slot
// word's owner field carries.
static_assert(sizeof(ElectionGate) == 4 && alignof(ElectionGate) == 4);

// ---- the combining core ---------------------------------------------
//
// Everything an executor does around its SlotArray that is not policy.
// Callers pass the wrapped object and their gate-holder id. kScope is
// the wait point's futex scope: kPrivate inside one process, kShared
// for a core that lives in a segment, whose processes each map the
// futex word at a different virtual address.
template <class Extra, std::size_t kSlots, FutexScope kScope>
class CombiningCore {
 public:
  using Slots = SlotArray<Extra, kSlots>;
  using gate_type = ElectionGate;

  [[nodiscard]] Slots& slots() noexcept { return slots_; }
  [[nodiscard]] const Slots& slots() const noexcept { return slots_; }

  template <class Ctx>
  bool try_acquire(Ctx& ctx, std::uint32_t self) {
    return line_.gate.try_acquire(ctx, self);
  }
  template <class Ctx, class Alive>
  bool take_or_steal(Ctx& ctx, std::uint32_t self, Alive&& alive) {
    return line_.gate.take_or_steal(ctx, self, std::forward<Alive>(alive));
  }

  // Releases the gate with one batched wake. It covers every waiter
  // class at once: records that turned kDone, gate, claim and drain()
  // waiters. Uncontended cost: one fence and one relaxed load, no RMW,
  // no syscall unless somebody parked.
  void release() noexcept {
    line_.gate.release();
    futex_waiters_.wake_all();
  }

  // Pre: the caller has just won the gate as `self`. Runs one operation
  // directly (a batch of one, no publication round trip), completes its
  // `extra` and releases the gate; only then scans for whatever
  // published meanwhile, and serves it through try_serve as `self`. The
  // completion fires under the gate at the op's point in the
  // serialization order, the same point where a combiner completes
  // published ops. The count comes first, while the winning CAS still
  // holds the gate's line. The scan runs after the release so that the
  // hold is the op and its completion alone: nearly every direct op
  // finds nothing, and the gate is free for the next op meanwhile. A
  // record found here may already be served by whoever took the gate
  // after the release; a failed try_serve leaves it to that holder.
  template <class Obj, class Ctx>
  ModuleResult run_direct(Obj& obj, Ctx& ctx, const Request& m,
                          std::optional<SwitchValue> init, const Extra& extra,
                          std::uint32_t self) {
    bump(line_.direct_ops, 1);
    const ModuleResult r = scm::apply(obj, ctx, m, init);
    extra.complete(m, r);
    release();
    if (slots_.any_pending()) try_serve(obj, ctx, self);
    return r;
  }

  // One combine pass if the gate is free right now, then the release;
  // false when someone else holds the gate. The pass's counts are
  // bumped just before the release store, so they and the release share
  // one transfer of the gate's line.
  template <class Obj, class Ctx>
  bool try_serve(Obj& obj, Ctx& ctx, std::uint32_t self) {
    if (!line_.gate.try_acquire(ctx, self)) return false;
    const std::size_t served = slots_.combine(obj, ctx);
    if (served != 0) {
      bump(line_.rounds, 1);
      bump(line_.batched_ops, served);
    }
    release();
    return true;
  }

  // Waits for published record idx to be served, then collects it. A
  // waiter that may combine serves whenever the gate is free; its own
  // record is pending throughout, so its pass serves at least itself.
  // The wait parks until something can have changed: the record
  // completed, or the gate freed and another attempt is worth making.
  template <class Obj, class Ctx>
  ModuleResult await_served(Obj& obj, Ctx& ctx, std::size_t idx,
                            std::uint32_t self, bool may_combine) {
    while (!slots_.done(idx)) {
      if (may_combine && try_serve(obj, ctx, self)) continue;
      wait(ctx, [this, idx, may_combine] {
        return slots_.done(idx) || (may_combine && line_.gate.looks_free());
      });
    }
    return collect(ctx, idx);
  }

  // Collects a kDone record, then wakes the waiters for a free record.
  // Collect runs on the publisher's slow path already, so the wake's
  // fence rides an existing round trip.
  template <class Ctx>
  ModuleResult collect(Ctx& ctx, std::size_t idx) {
    const ModuleResult r = slots_.collect(ctx, idx);
    futex_waiters_.wake_all();
    return r;
  }

  // Combines until no record below the mark is kPending or in state
  // `also_unserved` (the executor's drain predicate). When it returns,
  // every op published before the call has executed; kDone records
  // still await their publishers.
  template <class Obj, class Ctx>
  void drain(Obj& obj, Ctx& ctx, std::uint32_t self,
             SlotState also_unserved) {
    const auto unserved = [this, also_unserved] {
      return slots_.count_below_mark(also_unserved, SlotState::kPending) !=
             0;
    };
    while (unserved()) {
      if (try_serve(obj, ctx, self)) continue;
      wait(ctx,
           [this, &unserved] {
             return !unserved() || line_.gate.looks_free();
           });
    }
  }

  // Parks on the core's wait point (runtime/wait.hpp) until `pred`
  // holds; every state change a predicate can watch is followed by a
  // wake_all on the same point.
  template <class Ctx, class Pred>
  void wait(Ctx& ctx, Pred&& pred) {
    wait_until(ctx, std::forward<Pred>(pred), futex_waiters_);
  }

  [[nodiscard]] bool gate_free() const noexcept {
    return line_.gate.looks_free();
  }
  [[nodiscard]] std::uint32_t gate_holder() const noexcept {
    return line_.gate.holder();
  }

  // ---- telemetry (relaxed; the combining counters are written only by
  // the gate holder, so each bump is a plain load+store).

  // Operations that ran direct on the fast path, unpublished.
  // direct_ops() + combined_ops() == total invocations.
  [[nodiscard]] std::uint64_t direct_ops() const noexcept {
    // scm-lint: coarse (telemetry)
    return line_.direct_ops.load(std::memory_order_relaxed);
  }
  // Operations served by combine passes; divided by combine_rounds()
  // this is the achieved batch size.
  [[nodiscard]] std::uint64_t combined_ops() const noexcept {
    // scm-lint: coarse (telemetry)
    return line_.batched_ops.load(std::memory_order_relaxed);
  }
  // Combine passes that served at least one operation.
  [[nodiscard]] std::uint64_t combine_rounds() const noexcept {
    // scm-lint: coarse (telemetry)
    return line_.rounds.load(std::memory_order_relaxed);
  }
  // Park/wake telemetry of the wait point. A pure fast-path run makes
  // no futex syscall at all.
  [[nodiscard]] ParkStats park_stats() const noexcept {
    return futex_waiters_.stats();
  }
  // Records not currently kFree.
  [[nodiscard]] std::size_t occupied() const noexcept {
    return slots_.occupied();
  }
  // How many yields a saturated waiter climbs before its first park.
  void set_yields_before_park(int n) noexcept {
    futex_waiters_.set_yields_before_park(n);
  }
  [[nodiscard]] int yields_before_park() const noexcept {
    return futex_waiters_.yields_before_park();
  }

 private:
  // The gate and the counters only its holder writes, on one line.
  struct alignas(kCacheLineSize) GateLine {
    ElectionGate gate;
    std::atomic<std::uint64_t> direct_ops{0};
    std::atomic<std::uint64_t> rounds{0};
    std::atomic<std::uint64_t> batched_ops{0};
  };
  static_assert(sizeof(GateLine) == kCacheLineSize,
                "the gate and its holder's counters fill one cache line");
  SCM_ASSERT_ADDRESS_FREE(GateLine);

  Slots slots_{};
  GateLine line_{};
  // Rung-3 parking for every wait loop of the executor. One point for
  // the whole object: wakes are per combine pass, not per record, so a
  // finer grain would buy nothing but syscalls.
  alignas(kCacheLineSize) WaitPoint<kScope> futex_waiters_{};
};

// The array, the gate and the core live inside ShmCombining's
// segment-resident object.
SCM_ASSERT_ADDRESS_FREE(SlotRequest);
SCM_ASSERT_ADDRESS_FREE(SlotPayload);
SCM_ASSERT_ADDRESS_FREE(SlotNoExtra);
SCM_ASSERT_ADDRESS_FREE(SlotRecord<SlotNoExtra>);
SCM_ASSERT_ADDRESS_FREE(SlotArray<SlotNoExtra, 2>);
SCM_ASSERT_ADDRESS_FREE(ElectionGate);
SCM_ASSERT_ADDRESS_FREE(CombiningCore<SlotNoExtra, 2, FutexScope::kShared>);

}  // namespace scm
