// ShmCombining — the flat-combining wrapper rebuilt for a shared
// segment, so INDEPENDENT PROCESSES submit operations into one
// combiner the way threads submit into core/combining.hpp.
//
// The protocol is core/slot_protocol.hpp's CombiningCore, the code
// Combining runs: the publication array and every slot transition, the
// election gate, the gate-held fast path, the served-wait loop and
// drain(). None of it depends on a virtual address. The core and the
// wrapped object live inline in this object, which itself lives in a
// MAP_SHARED mapping that each process may map at its own address; the
// core's wait point uses the shared futex scope, so a wake reaches
// waiters in every process. The object is address-free, so a user who
// needs a named segment maps one (shm_open + mmap) and placement-news
// it there; forked processes can simply inherit one mapping.
//
// What IS new is the failure domain. A thread cannot vanish
// mid-publication; a process can (SIGKILL, OOM kill). Two mechanisms
// absorb that:
//
//   - The gate holds the combiner's pid, and every record's word
//     carries its publisher's pid beside the state, stamped by the
//     claim CAS itself and kept by the combiner's kDone store, so a
//     publisher that died at any point still has its name on the
//     record. The pid is resolved once per process
//     (support/process.hpp), not by a getpid() syscall per op, and
//     re-resolved in a forked child, which must stamp its own pid or
//     reclaim_dead could not tell it died.
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
// Platform note: this exact class also runs under the deterministic
// simulator. There the owner stamp is ctx.id() + 1 instead of the OS
// pid (simulated processes share one pid), the futex wait becomes a
// SimContext park, and the counted accesses — the slot transitions'
// steps, the gate CAS, and reclaim_dead's gate CAS and record frees —
// are the explorer's scheduling points. slot_protocol_explore_test
// enumerates every interleaving of 2-3 processes through it and kills a
// victim at each of its own steps, so the crash wreckage it checks is
// exactly what this code leaves behind.
#pragma once

#include "shm/shm_arena.hpp"  // platform gate: defines SCM_HAS_POSIX_SHM

#if SCM_HAS_POSIX_SHM

#include <signal.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "core/module.hpp"
#include "core/slot_protocol.hpp"
#include "history/request.hpp"
#include "runtime/ids.hpp"
#include "runtime/wait.hpp"
#include "shm/shm_layout.hpp"
#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"
#include "support/process.hpp"

namespace scm {

// Liveness probe for a gate or record holder stamped with a pid:
// signal 0 delivers nothing but performs the existence/permission
// check. EPERM means "exists but not ours" — alive; only ESRCH means
// gone.
inline bool shm_process_alive(std::uint32_t pid) noexcept {
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

template <class Obj, std::size_t kSlots>
class ShmCombining {
  static_assert(std::is_trivially_destructible_v<Obj>,
                "segment-resident objects are never destroyed in-place");

  using Core = CombiningCore<SlotNoExtra, kSlots, FutexScope::kShared>;

 public:
  static constexpr std::size_t kSlotCount = kSlots;

  // Same protocol, record payload and gate as the in-process wrapper —
  // shm_test asserts each pair of aliases is one type.
  using slot_state = SlotState;
  using slot_payload = SlotPayload;
  using gate_type = typename Core::gate_type;
  static constexpr std::size_t kSlotBytes =
      sizeof(typename Core::Slots::Record);

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
  // process anywhere, invoke blocks — the server contract. Such a
  // client under a descheduled server PARKS on the segment's shared
  // futex instead of burning its timeslice; the serving combiner's
  // gate release wakes it.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt,
                      bool may_combine = true) {
    const std::uint32_t self = owner_of(ctx);
    if (may_combine && core_.try_acquire(ctx, self)) {
      return core_.run_direct(obj_, ctx, m, init, {}, self);
    }
    const std::size_t idx = claim(ctx, self);
    core_.slots().publish(ctx, idx, self, m, init, {});
    return core_.await_served(obj_, ctx, idx, self, may_combine);
  }

  // One combine pass if the gate is free right now; false when some
  // other process holds it. shm_test's serving loops are
  // `while (...) try_serve(ctx);` — a dedicated combiner.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  bool try_serve(Ctx& ctx) {
    return core_.try_serve(obj_, ctx, owner_of(ctx));
  }

  // Combines until no publication is pending. Same contract as the
  // in-process drain(): every op PUBLISHED before the call has
  // executed on return; kDone slots still await their publishers.
  // Only kPending is waited out: a dead publisher's kClaimed record
  // never clears until reclaim_dead. Safe on an empty/fresh object —
  // returns immediately.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  void drain(Ctx& ctx) {
    core_.drain(obj_, ctx, owner_of(ctx), SlotState::kPending);
  }

  // Published-but-unserved operations right now (acquire scan — there
  // is no pending-count hint on purpose: a cached counter drifts
  // permanently when the process that was about to decrement it dies).
  [[nodiscard]] std::size_t pending() const noexcept {
    return core_.slots().count_below_mark(SlotState::kPending,
                                          SlotState::kPending);
  }
  // Records not currently kFree — shm_test checks this is zero after
  // the final drain + reclaim.
  [[nodiscard]] std::size_t occupied() const noexcept {
    return core_.occupied();
  }
  // Owner id holding the combiner gate, 0 when free.
  [[nodiscard]] std::uint32_t gate_holder() const noexcept {
    return core_.gate_holder();
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
    if (!core_.take_or_steal(ctx, owner_of(ctx), alive)) return 0;

    // Every record, not just those below the claim mark: a claimer
    // killed between its claim CAS and its mark raise leaves a
    // kClaimed record above it.
    std::size_t reclaimed = 0;
    for (auto& r : core_.slots().records()) {
      // scm-lint: coarse (scan; the free CAS is counted)
      std::uint32_t w = r.word.load(std::memory_order_acquire);
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
      if (ctx.late_cas(r.word, w, pack_slot(SlotState::kFree, 0),
                       std::memory_order_acq_rel, std::memory_order_relaxed)) {
        ++reclaimed;
      }
    }
    // The gate release's wake doubles as the orphan sweep-up: live
    // waiters parked against state a DEAD process was supposed to
    // change (claim() waiting on records the corpse held, publishers
    // waiting on a gate it wedged) re-check their predicates against
    // the swept slots and the freed gate instead of sleeping forever.
    core_.release();
    return reclaimed;
  }

  // Native sweep: owners are OS pids, probed with kill(pid, 0).
  template <class Ctx>
  std::size_t reclaim_dead(Ctx& ctx) {
    static_assert(!detail::context_can_await_v<Ctx>,
                  "simulated owners are ctx.id() + 1, not pids: pass an "
                  "alive() probe");
    return reclaim_dead(ctx, shm_process_alive);
  }

  [[nodiscard]] Obj& object() noexcept { return obj_; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_; }

  // ---- combining and park/wake telemetry. The counters live in the
  // segment, so they aggregate over ALL participating processes: a
  // client that parked against a stalled server shows up in the
  // server's readout (shm_test's stalled-server case checks that).

  [[nodiscard]] std::uint64_t combine_rounds() const noexcept {
    return core_.combine_rounds();
  }
  [[nodiscard]] std::uint64_t combined_ops() const noexcept {
    return core_.combined_ops();
  }
  [[nodiscard]] std::uint64_t direct_ops() const noexcept {
    return core_.direct_ops();
  }
  [[nodiscard]] ParkStats park_stats() const noexcept {
    return core_.park_stats();
  }

 private:
  // The caller's slot-owner / gate-holder id: its OS pid natively —
  // what reclaim_dead's kill(pid, 0) probe understands — and
  // ctx.id() + 1 under an awaitable (simulated) context, whose
  // processes share one OS pid. Nonzero either way: 0 means unowned.
  // The id must fit the slot word's 30-bit owner field. Every invoke
  // and every try_serve asks, so the native pid comes from
  // this_process_id()'s per-process cache (re-resolved in a forked
  // child), not from a getpid() syscall per call.
  template <class Ctx>
  static std::uint32_t owner_of(const Ctx& ctx) noexcept {
    std::uint32_t owner;
    if constexpr (detail::context_can_await_v<Ctx>) {
      owner = static_cast<std::uint32_t>(ctx.id()) + 1;
    } else {
      (void)ctx;
      owner = this_process_id();
    }
    SCM_CHECK_MSG(owner < kSlotOwnerLimit,
                  "owner id does not fit the slot word's owner field");
    return owner;
  }

  // Claims a free record, rotating from a pid-derived hint; blocks
  // (paced) while the array is exhausted — slot holders are publishers
  // mid-round-trip, and each round trip completes in bounded time once
  // a combiner runs. Parks until some record frees: a publisher's
  // collect, or reclaim_dead() sweeping a corpse's records (its gate
  // release wake is what un-parks us after a SIGKILL).
  template <class Ctx>
  std::size_t claim(Ctx& ctx, std::uint32_t self) {
    const std::size_t hint = static_cast<std::size_t>(self) % kSlots;
    for (;;) {
      if (const auto idx = core_.slots().try_claim(ctx, hint, self)) {
        return *idx;
      }
      core_.wait(ctx, [this] { return core_.occupied() < kSlots; });
    }
  }

  Core core_;
  alignas(kCacheLineSize) Obj obj_{};
};

// A class template cannot assert on itself from inside its own
// definition, so the wrapper-level layout guarantee is pinned on a
// minimal probe instantiation: if ShmCombining<trivial Obj> is
// segment-safe, nothing in the wrapper's own members (the core: slots,
// gate, wait point, telemetry words) breaks address freedom — a real
// Obj can only break it through its own fields, which its own
// SCM_ASSERT_ADDRESS_FREE covers (e.g. ShmCounter's).
namespace detail {
struct ShmLayoutProbe {
  std::atomic<std::uint64_t> word{0};
};
}  // namespace detail
SCM_ASSERT_ADDRESS_FREE(detail::ShmLayoutProbe);
SCM_ASSERT_ADDRESS_FREE(ShmCombining<detail::ShmLayoutProbe, 2>);
}  // namespace scm

#endif  // SCM_HAS_POSIX_SHM
