// ShmCombining — the flat-combining wrapper rebuilt for a shared
// segment, so INDEPENDENT PROCESSES submit operations into one
// combiner the way threads submit into core/combining.hpp.
//
// The insight carried over from the in-process wrapper: a publication
// slot is already a wait-free mailbox. Nothing about the
// kFree → kClaimed → kPending → kDone protocol (core/slot_protocol.hpp
// — shared with Combining, enforced by static_assert in shm_test)
// depends on a virtual address: the slot array, the gate word, and the
// wrapped object all live inline in this object, which itself lives at
// an arena offset, and every synchronization word is a lock-free
// std::atomic — address-free, so acquire/release pairs order accesses
// between different processes' mappings of the same physical lines.
// Ticket-style completion polls therefore work cross-process: poll the
// slot's word for kDone, exactly like Ticket::poll does in-process.
//
// What IS new is the failure domain. A thread cannot vanish
// mid-publication; a process can (SIGKILL, OOM kill). Two mechanisms
// absorb that:
//
//   - Every slot word packs {state, owner PID} into ONE atomic u64
//     (state low half, pid high half — pack_slot in
//     core/slot_protocol.hpp), so the claim CAS and the ownership
//     stamp are indivisible: a reclaim sweep can never see a claimed
//     record with a stale owner. The combiner preserves the
//     publisher's pid when it stores kDone, so a publisher that died
//     waiting still has its name on the slot.
//   - reclaim_dead() sweeps, UNDER THE GATE, every slot whose owner no
//     longer exists (kill(pid, 0) probe, injectable for tests) and
//     frees the ones the dead process could never recycle itself:
//     kClaimed (died mid-write — the request was never published, so
//     dropping it is the only sound choice) and kDone (died waiting —
//     the op executed; only its collection is abandoned). kPending
//     slots of dead owners are NOT dropped: the publication is
//     complete (the kPending store released it), so the next combine
//     pass executes it and the slot becomes reclaimable kDone. The
//     gate itself is also stolen from a dead holder, since a dead
//     combiner otherwise wedges the object forever.
//
// Division of labor that makes crash-reclaim SOUND rather than
// best-effort: a process that may be killed should submit with
// may_combine = false (publication only — shm_test's SIGKILL clients do).
// Then it can only ever die holding a slot, never the gate mid-batch,
// and the reconciliation bound is exact: a client killed at an
// arbitrary point has AT MOST ONE operation in flight, which either
// executed (kPending/kDone) or did not (kClaimed), so
// completed_ops <= object_total <= started_ops holds with slack <= 1
// per kill. A combiner dying mid-batch would instead leave the wrapped
// object's state ahead of any count — unrecoverable without undo logs.
//
// Platform note: publishers BLOCK on the combiner's progress, and every
// blocking point goes through wait_until (runtime/wait.hpp), so this
// exact class also runs under the deterministic simulator. There the
// owner stamp is ctx.id() + 1 instead of the OS pid (simulated
// processes share one pid), the futex wait becomes a SimContext park,
// and the counted accesses — claim CAS, publish write, result read,
// gate CAS, the combiner's slot reads/writebacks, and reclaim_dead's
// gate CAS and slot frees — are the explorer's scheduling points.
// slot_protocol_explore_test enumerates every interleaving of 2-3
// processes through it and kills a victim at each of its own steps, so
// the crash wreckage it checks is exactly what this code leaves behind.
#pragma once

#include "shm/shm_arena.hpp"  // platform gate: defines SCM_HAS_POSIX_SHM

#if SCM_HAS_POSIX_SHM

#include <signal.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>

#include "core/batch.hpp"
#include "core/module.hpp"
#include "core/slot_protocol.hpp"
#include "history/request.hpp"
#include "runtime/ids.hpp"
#include "runtime/wait.hpp"
#include "shm/shm_layout.hpp"
#include "support/assert.hpp"
#include "support/backoff.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"

namespace scm {

// Liveness probe for reclaim_dead: signal 0 delivers nothing but
// performs the existence/permission check. EPERM means "exists but
// not ours" — alive; only ESRCH means gone.
inline bool shm_process_alive(std::uint32_t pid) noexcept {
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

template <class Obj, std::size_t kSlots>
class ShmCombining {
  static_assert(kSlots >= 1, "a combining wrapper needs at least one slot");
  static_assert(std::is_trivially_destructible_v<Obj>,
                "segment-resident objects are never destroyed in-place");

  // One publication record, padded to a cache line so distinct
  // processes publish on distinct lines. The word packs
  // {SlotState, owner pid}; request/init/result are plain fields
  // ordered by the word's release stores exactly as in the in-process
  // Slot — except init is (has_init, value) rather than std::optional,
  // which is not guaranteed segment-safe layout.
  struct alignas(kCacheLineSize) Slot {
    std::atomic<std::uint64_t> word{0};  // pack_slot(kFree, 0)
    Request request{};
    SwitchValue init_value = 0;
    ModuleResult result{};
    bool has_init = false;
  };
  SCM_ASSERT_ADDRESS_FREE(Slot);

 public:
  static constexpr std::size_t kSlotCount = kSlots;

  // Same protocol as the in-process wrapper — shm_test asserts the
  // two `slot_state` aliases are one type.
  using slot_state = SlotState;

  // Compiled-in shape fingerprint, published alongside the arena
  // offset and checked by attachers BEFORE the first shared access:
  // folds the slot protocol revision and every layout-determining
  // quantity, so two binaries whose ShmCombining instantiations
  // disagree in any way fail fast at resolve time.
  static constexpr std::uint32_t kTypeTag = [] {
    std::uint32_t h = 2166136261u;  // FNV-1a
    // sizeof(WaitPoint) folds the parking-word layout in: a binary
    // without the shared futex member (or with different telemetry
    // counters) maps the object differently and must not attach.
    for (std::uint64_t v :
         {std::uint64_t{kSlotProtocolVersion}, std::uint64_t{kSlots},
          std::uint64_t{sizeof(Obj)}, std::uint64_t{alignof(Obj)},
          std::uint64_t{sizeof(Slot)}, std::uint64_t{sizeof(Request)},
          std::uint64_t{sizeof(ModuleResult)},
          std::uint64_t{sizeof(WaitPoint<FutexScope::kShared>)}}) {
      for (int b = 0; b < 8; ++b) {
        h ^= static_cast<std::uint32_t>((v >> (8 * b)) & 0xff);
        h *= 16777619u;
      }
    }
    return h;
  }();

  ShmCombining() = default;
  ShmCombining(const ShmCombining&) = delete;
  ShmCombining& operator=(const ShmCombining&) = delete;

  // Publish, then wait to be served — or combine. With
  // may_combine = true (the default; in-process-equivalent behavior)
  // the caller elects itself combiner whenever the gate is free, so a
  // single process is self-sufficient. Crash-exposed processes pass
  // may_combine = false: pure publication, the op executes only on a
  // serving combiner, and dying at any point leaves at most this one
  // op ambiguous (see file comment). With false and no serving
  // process anywhere, invoke blocks — the server contract.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt,
                      bool may_combine = true) {
    const std::uint32_t self = owner_of(ctx);
    // Fast path: gate free — run directly (a batch of one), serve
    // whatever published meanwhile, release.
    if (may_combine && try_gate(ctx, self)) {
      const ModuleResult r = scm::apply(obj_, ctx, m, init);
      bump(direct_ops_, 1);
      combine(ctx);
      release_gate();
      return r;
    }

    Slot& slot = slots_[claim(ctx, self)];
    slot.request = m;
    slot.has_init = init.has_value();
    slot.init_value = init.value_or(SwitchValue{0});
    ctx.on_write();
    // The release publishes the plain writes above; pid rides in the
    // word so a reclaimer knows whose publication this is.
    slot.word.store(pack_slot(SlotState::kPending, self),
                    std::memory_order_release);

    while (slot_state_of(slot.word.load(std::memory_order_acquire)) !=
           SlotState::kDone) {
      if (may_combine && try_gate(ctx, self)) {
        combine(ctx);  // serves at least our own pending slot
        release_gate();
        continue;
      }
      // Rung-3 wait on the segment's shared futex: a may_combine=false
      // client under a descheduled server PARKS here instead of
      // burning its timeslice against a gate nobody is serving — the
      // serving combiner's release_gate() wake resumes it.
      wait_until(
          ctx,
          [this, &slot, may_combine] {
            return slot_state_of(slot.word.load(std::memory_order_relaxed)) ==
                       SlotState::kDone ||
                   (may_combine &&
                    gate_.load(std::memory_order_relaxed) == 0);
          },
          futex_waiters_);
    }
    ctx.on_read();
    const ModuleResult r = slot.result;
    slot.word.store(pack_slot(SlotState::kFree, 0),
                    std::memory_order_release);
    // A freed record is what claim()'s exhaustion wait parks on.
    futex_waiters_.wake_all();
    return r;
  }

  // One combine pass if the gate is free right now; false when some
  // other process holds it. shm_test's serving loops are
  // `while (...) try_serve(ctx);` — a dedicated combiner.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  bool try_serve(Ctx& ctx) {
    if (!try_gate(ctx, owner_of(ctx))) return false;
    combine(ctx);
    release_gate();
    return true;
  }

  // Combines until no publication is pending. Same contract as the
  // in-process drain(): every op PUBLISHED before the call has
  // executed on return; kDone slots still await their publishers.
  // Safe on an empty/fresh object — returns immediately.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  void drain(Ctx& ctx) {
    while (pending() != 0) {
      if (try_serve(ctx)) continue;
      wait_until(
          ctx,
          [this] {
            return pending() == 0 ||
                   gate_.load(std::memory_order_relaxed) == 0;
          },
          futex_waiters_);
    }
  }

  // Published-but-unserved operations right now (acquire scan — there
  // is no pending-count hint on purpose: a cached counter drifts
  // permanently when the process that was about to decrement it dies).
  [[nodiscard]] std::size_t pending() const noexcept {
    return count_in_state(SlotState::kPending);
  }
  // Records not currently kFree — shm_test checks this is zero after
  // the final drain + reclaim.
  [[nodiscard]] std::size_t occupied() const noexcept {
    return kSlots - count_in_state(SlotState::kFree);
  }
  // Owner id holding the combiner gate, 0 when free.
  [[nodiscard]] std::uint32_t gate_holder() const noexcept {
    return gate_.load(std::memory_order_acquire);
  }

  // Sweeps the wreckage of dead processes: frees kClaimed and kDone
  // slots whose owner fails the liveness probe, and steals the gate
  // from a dead holder first (a dead combiner wedges everything).
  // Runs the sweep UNDER the gate so it cannot race a live combiner's
  // scan/writeback; if a LIVE process holds the gate there is nothing
  // to reclaim safely and the sweep is skipped (returns 0 — call
  // again later, the server loop does). Returns slots freed.
  //
  // `alive(owner) -> bool` is injectable so tests can declare a live
  // helper process "dead" deterministically (and so the simulator,
  // whose owners are ctx.id() + 1, can say which ones died). The gate
  // CAS and each slot free are counted RMW steps, so under the
  // simulator the sweep interleaves with live publishers step by step.
  template <class Ctx, class Alive>
  std::size_t reclaim_dead(Ctx& ctx, Alive&& alive) {
    const std::uint32_t self = owner_of(ctx);
    std::uint32_t holder = gate_.load(std::memory_order_acquire);
    // Take the gate if it is free, or steal it from a dead holder; the
    // CAS fails if anyone else (a combiner, another reclaimer) got there
    // first.
    if (holder != 0 && alive(holder)) return 0;
    if (!gate_.compare_exchange_strong(holder, self,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return 0;
    }
    ctx.on_rmw();

    std::size_t reclaimed = 0;
    for (Slot& s : slots_) {
      std::uint64_t w = s.word.load(std::memory_order_acquire);
      const SlotState state = slot_state_of(w);
      const std::uint32_t owner = slot_owner_of(w);
      // kPending is deliberately exempt: the publication is complete,
      // so the op executes on the next combine and the slot resurfaces
      // here as a dead-owned kDone.
      if (owner == 0 || state == SlotState::kFree ||
          state == SlotState::kPending) {
        continue;
      }
      if (alive(owner)) continue;
      // Only the owner performs kClaimed->kPending and kDone->kFree,
      // and the owner is dead; the gate excludes combiners. The CAS is
      // belt-and-braces against a probe that raced the owner's death.
      if (s.word.compare_exchange_strong(w, pack_slot(SlotState::kFree, 0),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        ctx.on_rmw();
        ++reclaimed;
      }
    }
    // release_gate's wake doubles as the orphan sweep-up: live waiters
    // parked against state a DEAD process was supposed to change
    // (claim() waiting on records the corpse held, publishers waiting
    // on a gate it wedged) re-check their predicates against the swept
    // slots and the freed gate instead of sleeping forever.
    release_gate();
    return reclaimed;
  }

  // Native sweep: owners are OS pids, probed with kill(pid, 0).
  template <class Ctx>
  std::size_t reclaim_dead(Ctx& ctx) {
    static_assert(!detail::context_can_await_v<Ctx>,
                  "simulated owners are ctx.id() + 1, not pids: pass an "
                  "alive() probe");
    return reclaim_dead(
        ctx, [](std::uint32_t pid) { return shm_process_alive(pid); });
  }

  [[nodiscard]] Obj& object() noexcept { return obj_; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_; }

  // ---- combining telemetry (this process's mapping is shared, so
  // these aggregate over ALL participating processes).

  [[nodiscard]] std::uint64_t combine_rounds() const noexcept {
    return rounds_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t combined_ops() const noexcept {
    return batched_ops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t direct_ops() const noexcept {
    return direct_ops_.load(std::memory_order_relaxed);
  }

  // Park/wake telemetry from the segment-resident WaitPoint. The
  // counters live in shared memory, so — like the combining counters
  // above — they aggregate over ALL participating processes: a client
  // that parked against a stalled server shows up in the server's
  // readout (shm_test's stalled-server case checks exactly that).
  [[nodiscard]] ParkStats park_stats() const noexcept {
    return futex_waiters_.stats();
  }

 private:
  // The caller's slot-owner / gate-holder id: its OS pid natively —
  // what reclaim_dead's kill(pid, 0) probe understands — and
  // ctx.id() + 1 under an awaitable (simulated) context, whose
  // processes share one OS pid. Nonzero either way: 0 means unowned.
  template <class Ctx>
  static std::uint32_t owner_of(const Ctx& ctx) noexcept {
    if constexpr (detail::context_can_await_v<Ctx>) {
      return static_cast<std::uint32_t>(ctx.id()) + 1;
    } else {
      (void)ctx;
      return static_cast<std::uint32_t>(::getpid());
    }
  }

  // Gate = combiner election word holding the OWNER'S PID (0 = free),
  // the cross-process analogue of the in-process TAS bool — the pid is
  // what lets reclaim_dead distinguish "busy" from "wedged by a
  // corpse".
  template <class Ctx>
  bool try_gate(Ctx& ctx, std::uint32_t self) {
    std::uint32_t expected = 0;
    if (gate_.load(std::memory_order_relaxed) == 0 &&
        gate_.compare_exchange_strong(expected, self,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      ctx.on_rmw();
      return true;
    }
    return false;
  }
  void release_gate() noexcept {
    gate_.store(0, std::memory_order_release);
    // One batched wake per combine pass / gate handover: kDone slots,
    // gate-waiters, and drain()ers all re-check off this single call.
    // Uncontended cost: a fence + one relaxed load, no syscall.
    futex_waiters_.wake_all();
  }

  // Claims a free record, rotating from a pid-derived hint; blocks
  // (paced) while the array is exhausted — slot holders are publishers
  // mid-round-trip, and each round trip completes in bounded time once
  // a combiner runs. The ownership stamp rides in the claim CAS itself:
  // the indivisibility the reclaim sweep depends on, and exactly what
  // the seeded mutation (kMutateDropOwnerStamp) severs.
  template <class Ctx>
  std::size_t claim(Ctx& ctx, std::uint32_t self) {
    const std::uint32_t stamp = kMutateDropOwnerStamp ? 0 : self;
    const std::size_t hint = static_cast<std::size_t>(self) % kSlots;
    for (;;) {
      for (std::size_t k = 0; k < kSlots; ++k) {
        const std::size_t idx =
            hint + k < kSlots ? hint + k : hint + k - kSlots;
        Slot& slot = slots_[idx];
        std::uint64_t expected = pack_slot(SlotState::kFree, 0);
        if (slot.word.load(std::memory_order_relaxed) == expected &&
            slot.word.compare_exchange_strong(
                expected, pack_slot(SlotState::kClaimed, stamp),
                std::memory_order_acquire, std::memory_order_relaxed)) {
          ctx.on_rmw();
          return idx;
        }
      }
      // Array exhausted: park until some record frees — a publisher's
      // collect, or reclaim_dead() sweeping a corpse's records (its
      // release_gate wake is what un-parks us after a SIGKILL).
      wait_until(
          ctx,
          [this] {
            for (const Slot& s : slots_) {
              if (slot_state_of(s.word.load(std::memory_order_relaxed)) ==
                  SlotState::kFree) {
                return true;
              }
            }
            return false;
          },
          futex_waiters_);
    }
  }

  // One combiner pass (pre: gate held by this process): snapshot the
  // pending slots into a process-LOCAL batch, drive it through the
  // shared run_batch dispatch, publish results back. The local batch
  // is why a combiner crash mid-pass is unrecoverable — and why
  // crash-exposed processes publish with may_combine = false.
  template <class Ctx>
  void combine(Ctx& ctx) {
    std::array<OpSlot, kSlots> batch;
    std::array<std::size_t, kSlots> source{};
    std::array<std::uint32_t, kSlots> publisher{};
    std::size_t n = 0;
    for (std::size_t i = 0; i < kSlots; ++i) {
      Slot& s = slots_[i];
      const std::uint64_t w = s.word.load(std::memory_order_acquire);
      if (slot_state_of(w) != SlotState::kPending) continue;
      ctx.on_read();
      batch[n].request = s.request;
      batch[n].init = s.has_init ? std::optional<SwitchValue>(s.init_value)
                                 : std::nullopt;
      batch[n].done = false;
      source[n] = i;
      publisher[n] = slot_owner_of(w);
      ++n;
    }
    if (n == 0) return;

    run_batch(obj_, ctx, std::span<OpSlot>(batch.data(), n));

    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slots_[source[i]];
      s.result = batch[i].result;
      ctx.on_write();
      // Preserve the publisher's pid: if it died waiting, its name on
      // the kDone slot is what makes the record reclaimable.
      s.word.store(pack_slot(SlotState::kDone, publisher[i]),
                   std::memory_order_release);
    }
    bump(rounds_, 1);
    bump(batched_ops_, n);
  }

  [[nodiscard]] std::size_t count_in_state(SlotState state) const noexcept {
    std::size_t n = 0;
    for (const Slot& s : slots_) {
      if (slot_state_of(s.word.load(std::memory_order_acquire)) == state) {
        ++n;
      }
    }
    return n;
  }

  std::array<Slot, kSlots> slots_{};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> gate_{0};
  // Rung-3 parking for every wait loop above. kShared scope: the futex
  // word lives in the segment, so FUTEX_WAIT/FUTEX_WAKE must key on
  // the physical page (no FUTEX_PRIVATE_FLAG) — each process maps it
  // at a different virtual address.
  alignas(kCacheLineSize) WaitPoint<FutexScope::kShared> futex_waiters_{};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> batched_ops_{0};
  std::atomic<std::uint64_t> direct_ops_{0};
  alignas(kCacheLineSize) Obj obj_{};
};

// A class template cannot assert on itself from inside its own
// definition, so the wrapper-level layout guarantee is pinned on a
// minimal probe instantiation: if ShmCombining<trivial Obj> is
// segment-safe, nothing in the wrapper's own members (slots, gate,
// telemetry words) breaks address freedom — a real Obj can only break
// it through its own fields, which its own SCM_ASSERT_ADDRESS_FREE
// covers (e.g. ShmCounter's).
namespace detail {
struct ShmLayoutProbe {
  std::atomic<std::uint64_t> word{0};
};
}  // namespace detail
SCM_ASSERT_ADDRESS_FREE(detail::ShmLayoutProbe);
SCM_ASSERT_ADDRESS_FREE(ShmCombining<detail::ShmLayoutProbe, 2>);

}  // namespace scm

#endif  // SCM_HAS_POSIX_SHM
