// The publication-slot state machine shared by every combining path.
//
// Two executors speak this protocol today: the in-process
// flat-combining wrapper (core/combining.hpp), whose slots live at
// virtual addresses inside one process, and the cross-process
// ShmCombining (shm/shm_combining.hpp), whose slots live at offsets
// inside a shared-memory segment. The states and transitions are
// defined ONCE here so the two cannot drift — shm_test static_asserts
// that both compile against this same enum.
//
// Lifecycle of one publication record:
//
//   kFree ──CAS──▶ kClaimed ──release──▶ kPending ──release──▶ kDone
//     ▲   (publisher owns     (request visible      (result visible
//     │    the record)         to combiners)         to the publisher)
//     └──────────────────────── release ◀────────────────────────┘
//                       (publisher collects, record recycles)
//
// kClaimed exists so a colliding publisher can never observe a
// half-written request: a combiner only reads slots it sees as
// kPending, and the kPending store releases the plain request/init
// writes before it. The same fence discipline makes the protocol
// correct across processes — std::atomic on a lock-free 32/64-bit word
// is address-free, so acquire/release pairs work between mappings of
// the same physical page at different virtual addresses.
#pragma once

#include <atomic>
#include <cstdint>

namespace scm {

// Protocol revision: bumped whenever a state is added/renumbered or a
// transition changes meaning. Cross-process consumers fold it into
// their segment type tags so two binaries speaking different protocol
// revisions fail fast at attach time instead of corrupting slots.
inline constexpr std::uint32_t kSlotProtocolVersion = 1;

// ---- seeded protocol mutation (kill-the-mutant gate) ---------------
//
// Compiling with -DSCM_MUTATE_SLOT_PROTOCOL plants ONE deliberate
// protocol bug in the shipping ShmCombining::claim: the ownership
// stamp is dropped from the claim CAS, so a record claimed by a
// process that then dies carries owner 0 and the reclaim sweep — which
// must skip unowned records — can never free it. This exists to prove
// the verification layer has teeth: the slot_mutation_catch CTest
// entry compiles ShmCombining's explorer suite with the flag and
// EXPECTS its claim kill-point test to fail (WILL_FAIL). Never define
// the flag in a shipping build; the constant below keeps the mutation
// a plain `if` in protocol code instead of scattered #ifdefs.
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
//
// The cross-process protocol adds a failure domain the in-process one
// lacks: a publisher can die (SIGKILL) between claim and collect, and
// nothing in its address space survives to recycle the record. The shm
// slots therefore pack {state, owner pid} into ONE atomic 64-bit word
// — state in the low half, pid in the high half — so the claim CAS and
// the ownership stamp are a single indivisible step: a reclaim sweep
// can never observe a claimed record whose owner field still belongs
// to a previous (possibly dead) occupant. The in-process wrapper keeps
// a bare SlotState word; same states, same transitions.

[[nodiscard]] constexpr std::uint64_t pack_slot(SlotState state,
                                                std::uint32_t owner) noexcept {
  return static_cast<std::uint64_t>(state) |
         (static_cast<std::uint64_t>(owner) << 32);
}

[[nodiscard]] constexpr SlotState slot_state_of(std::uint64_t word) noexcept {
  return static_cast<SlotState>(word & 0xffffffffull);
}

[[nodiscard]] constexpr std::uint32_t slot_owner_of(
    std::uint64_t word) noexcept {
  return static_cast<std::uint32_t>(word >> 32);
}

static_assert(slot_state_of(pack_slot(SlotState::kPending, 0x1234)) ==
              SlotState::kPending);
static_assert(slot_owner_of(pack_slot(SlotState::kPending, 0x1234)) == 0x1234);
static_assert(pack_slot(SlotState::kFree, 0) == 0,
              "zero-initialized slot words must read as free/unowned");

// ---- executor telemetry ---------------------------------------------
//
// Both executors count direct ops, combine rounds and batched ops in
// counters whose single writer is the election-lock (gate) holder; the
// lock's acquire orders each holder after the previous one's stores, so
// a relaxed load+store loses nothing and needs no RMW. (A gate stolen
// from a dead ShmCombining holder may miss that holder's last bumps;
// a batch cut short by a crash is unaccountable anyway.) Readers load
// them relaxed, off the hot path.
inline void bump(std::atomic<std::uint64_t>& counter,
                 std::uint64_t n) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

}  // namespace scm
