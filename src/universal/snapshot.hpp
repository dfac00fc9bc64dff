// Lock-free snapshot object over single-writer registers.
//
// The composable universal construction's `Reqs` object: process i
// appends its requests to component Reqs[i] and any process can read a
// consistent view of all components. We implement the classic
// double-collect snapshot with sequence-numbered components. The
// double collect terminates whenever the writer set quiesces; in the
// universal construction it is only scanned during abort recovery,
// where the paper's progress argument does not require wait-freedom
// (processes recovering concurrently keep writing nothing).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "runtime/ids.hpp"
#include "runtime/registers.hpp"

namespace scm {

// Fixed-capacity append-only log per process; Cap bounds the number of
// requests one process may issue to a single universal-construction
// instance (a model parameter, not a correctness bound).
template <class T, std::size_t Cap = 64>
class SnapshotLog {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  explicit SnapshotLog(int num_processes) : n_(num_processes) {
    SCM_CHECK(num_processes > 0);
    // Registers are neither copyable nor movable; construct in place.
    components_ = std::make_unique<Component[]>(static_cast<std::size_t>(n_));
  }

  // Appends `value` to the calling process's component (single-writer);
  // returns the slot index the value landed in.
  template <class Ctx>
  std::uint64_t append(Ctx& ctx, const T& value) {
    auto& mine = components_[static_cast<std::size_t>(ctx.id())];
    const std::uint64_t len = mine.length.read(ctx);
    SCM_CHECK_MSG(len < Cap, "SnapshotLog component overflow");
    mine.slots[len].write(ctx, value);
    mine.length.write(ctx, len + 1);
    return len;
  }

  // Direct read of one slot. The caller must know the slot was written
  // (e.g. it holds a reference decided through consensus, which the
  // writer published only after the slot write).
  template <class Ctx>
  [[nodiscard]] T read_slot(Ctx& ctx, ProcessId pid,
                            std::uint64_t index) const {
    SCM_CHECK_MSG(pid >= 0 && pid < n_ && index < Cap,
                  "SnapshotLog slot out of range");
    return components_[static_cast<std::size_t>(pid)].slots[index].read(ctx);
  }

  // Double-collect snapshot: returns a consistent cut of all
  // components (vector of per-process vectors).
  template <class Ctx>
  [[nodiscard]] std::vector<std::vector<T>> scan(Ctx& ctx) const {
    std::vector<std::uint64_t> first(static_cast<std::size_t>(n_));
    for (;;) {
      for (int i = 0; i < n_; ++i) {
        first[static_cast<std::size_t>(i)] =
            components_[static_cast<std::size_t>(i)].length.read(ctx);
      }
      std::vector<std::vector<T>> view(static_cast<std::size_t>(n_));
      for (int i = 0; i < n_; ++i) {
        auto& comp = components_[static_cast<std::size_t>(i)];
        for (std::uint64_t k = 0; k < first[static_cast<std::size_t>(i)];
             ++k) {
          view[static_cast<std::size_t>(i)].push_back(comp.slots[k].read(ctx));
        }
      }
      bool clean = true;
      for (int i = 0; i < n_; ++i) {
        if (components_[static_cast<std::size_t>(i)].length.read(ctx) !=
            first[static_cast<std::size_t>(i)]) {
          clean = false;
          break;
        }
      }
      if (clean) return view;
    }
  }

 private:
  struct Component {
    NativeRegister<std::uint64_t> length{0};
    std::array<NativeRegister<T>, Cap> slots{};
  };

  int n_;
  std::unique_ptr<Component[]> components_;
};

}  // namespace scm
