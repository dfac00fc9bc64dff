// ShmSpinBarrier — support/barrier.hpp's algorithm, re-housed so the
// whole object can live inside a shared segment and align PROCESSES
// instead of threads (shm_test's stalled-server case aligns its server
// and client process at one barrier, exactly like the in-process
// driver does with SpinBarrier).
//
// Same one-word protocol as SpinBarrier: arrival count and generation
// share a single atomic u64 (low half count, high half generation) so
// the last arriver's reset-and-publish is one release store and a
// re-entering party can never interleave with a split reset. The
// differences are exactly the shm constraints: standard layout, no
// const member (the object is placement-constructed into the segment
// by the server and merely looked at by clients), and the wait loop
// climbs the full spin → yield → park ladder against a process-shared
// futex (support/parking.hpp) — a cross-process wait routinely spans a
// scheduling quantum (clients park at the barrier while the server
// finishes setup), where SpinBarrier's bare spin is tuned for
// same-address-space alignment right before a measurement.
//
// The futex word is SEPARATE from the count+generation u64: the kernel
// waits on exactly 4 bytes, and half of a torn u64 is not a protocol
// state — so waiters park on the WaitPoint's own epoch word and the
// last arriver's generation store + wake_all() resumes them.
#pragma once

#include <atomic>
#include <cstdint>

#include "shm/shm_layout.hpp"
#include "support/backoff.hpp"
#include "support/parking.hpp"

namespace scm {

class ShmSpinBarrier {
 public:
  ShmSpinBarrier() = default;
  explicit ShmSpinBarrier(std::uint32_t parties) noexcept
      : parties_(parties) {}

  ShmSpinBarrier(const ShmSpinBarrier&) = delete;
  ShmSpinBarrier& operator=(const ShmSpinBarrier&) = delete;

  [[nodiscard]] std::uint32_t parties() const noexcept { return parties_; }

  // How many parties of the current generation have arrived — lets a
  // server (shm_test's stalled-server case) spin until every client is
  // parked and only then arrive itself.
  [[nodiscard]] std::uint32_t arrived() const noexcept {
    return static_cast<std::uint32_t>(
        state_.load(std::memory_order_acquire) & kCountMask);
  }

  void arrive_and_wait() noexcept {
    const std::uint64_t prev = state_.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t generation = prev >> kGenerationShift;
    if ((prev & kCountMask) + 1 == parties_) {
      state_.store((generation + 1) << kGenerationShift,
                   std::memory_order_release);
      futex_waiters_.wake_all();
      return;
    }
    parked_wait(futex_waiters_, [this, generation] {
      return (state_.load(std::memory_order_acquire) >> kGenerationShift) !=
             generation;
    });
  }

 private:
  static constexpr int kGenerationShift = 32;
  static constexpr std::uint64_t kCountMask = 0xffffffffULL;

  std::uint32_t parties_ = 0;
  std::uint32_t pad_ = 0;
  std::atomic<std::uint64_t> state_{0};
  WaitPoint<FutexScope::kShared> futex_waiters_{};
};

SCM_ASSERT_ADDRESS_FREE(ShmSpinBarrier);

}  // namespace scm
