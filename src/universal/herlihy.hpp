// Herlihy's wait-free universal construction [14] — the baseline the
// composable construction extends. Requests are announced, then decided
// into a totally ordered sequence of cells by wait-free (CAS) consensus
// with round-robin helping; every process replays the decided sequence
// against its local replica.
//
// This is the "always strong" comparison point: every operation costs
// at least one RMW and the construction's consensus number is infinite,
// which is exactly the cost Proposition 2 says any wait-free universal
// object must pay.
#pragma once

#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "consensus/cas_consensus.hpp"
#include "history/specs.hpp"
#include "universal/snapshot.hpp"

namespace scm {

template <class P, class Spec, std::size_t CapPerProc = 64>
class HerlihyUniversal {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberCas;
  using Context = typename P::Context;

  HerlihyUniversal(int num_processes, std::size_t max_cells)
      : n_(num_processes), requests_(num_processes) {
    SCM_CHECK(num_processes > 0);
    cells_.reserve(max_cells);
    for (std::size_t i = 0; i < max_cells; ++i) {
      cells_.push_back(std::make_unique<CasConsensus<P>>());
    }
    announce_ = std::make_unique<AnnounceSlot[]>(
        static_cast<std::size_t>(num_processes));
    per_proc_ =
        std::make_unique<PerProc[]>(static_cast<std::size_t>(num_processes));
  }

  // Wait-free: applies m and returns its response.
  Response perform(Context& ctx, const Request& m) {
    SCM_CHECK_MSG(0 <= ctx.id() && ctx.id() < n_,
                  "HerlihyUniversal: process id out of range");
    PerProc& me = per_proc_[static_cast<std::size_t>(ctx.id())];

    const std::uint64_t index = requests_.append(ctx, m);
    const std::int64_t my_ref = pack(ctx.id(), index);
    announce_[static_cast<std::size_t>(ctx.id())].ref.write(ctx, my_ref);

    Response out = kNoResponse;
    bool applied_mine = false;
    while (!applied_mine) {
      const std::size_t k = me.applied;
      SCM_CHECK_MSG(k < cells_.size(), "HerlihyUniversal out of cells");

      // Round-robin helping makes the construction wait-free: cell k
      // gives priority to process (k mod n)'s announced request.
      std::int64_t target = my_ref;
      const std::int64_t helped =
          announce_[k % static_cast<std::size_t>(n_)].ref.read(ctx);
      if (helped != kBottom) {
        const Request hr = fetch(ctx, helped);
        if (!me.performed.contains(hr.id)) target = helped;
      }

      const ConsensusResult decision = cells_[k]->propose(ctx, target);
      SCM_CHECK(decision.committed());  // CAS consensus never aborts
      const Request decided = fetch(ctx, decision.value);
      SCM_CHECK_MSG(!me.performed.contains(decided.id),
                    "request decided twice in Herlihy construction");
      const Response resp = Spec::apply(me.replica, decided);
      me.performed.append(decided);
      ++me.applied;
      if (decided.id == m.id) {
        out = resp;
        applied_mine = true;
      }
    }
    return out;
  }

 private:
  struct AnnounceSlot {
    typename P::template Register<std::int64_t> ref{kBottom};
  };

  struct alignas(kCacheLineSize) PerProc {
    typename Spec::State replica{};
    History performed;
    std::size_t applied = 0;
  };

  static std::int64_t pack(ProcessId pid, std::uint64_t index) {
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(pid) * CapPerProc + index + 1);
  }

  template <class Ctx>
  Request fetch(Ctx& ctx, std::int64_t ref) const {
    SCM_CHECK_MSG(ref > 0, "invalid request reference");
    const auto raw = static_cast<std::uint64_t>(ref - 1);
    return requests_.read_slot(ctx, static_cast<ProcessId>(raw / CapPerProc),
                               raw % CapPerProc);
  }

  int n_;
  std::vector<std::unique_ptr<CasConsensus<P>>> cells_;
  SnapshotLog<P, Request, CapPerProc> requests_;
  std::unique_ptr<AnnounceSlot[]> announce_;
  std::unique_ptr<PerProc[]> per_proc_;
};

}  // namespace scm
