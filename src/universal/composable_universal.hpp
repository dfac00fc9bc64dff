// The composable universal construction (Section 4.2).
//
// Herlihy's universal construction with wait-free consensus replaced by
// *abortable* consensus. Processes agree, cell by cell, on the order in
// which announced requests apply; if any consensus instance aborts (or
// the shared Aborted flag is raised), the process reconstructs a valid
// abort history from the already-decided cells and returns
// Abort(m, h), ready to initialize the next Abstract in a chain.
//
// Shared state, as in the paper:
//   Cons[]  — abortable consensus instances, one per sequence cell;
//   Aborted — flag that poisons the instance once set;
//   Reqs    — snapshot log where process i announces its requests
//             (component i); consensus decides packed references into
//             it, so values fit in one register;
//   C       — counter tracking the number of committed cells, which
//             bounds abort-history reconstruction.
//
// Progress: commits while the underlying consensus commits (its NT
// predicate — Lemma 1); any abort poisons the instance so that every
// process switches to the next module.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "consensus/consensus.hpp"
#include "history/specs.hpp"
#include "runtime/primitives.hpp"
#include "runtime/registers.hpp"
#include "support/cacheline.hpp"
#include "universal/abstract.hpp"
#include "universal/snapshot.hpp"

namespace scm {

template <class Spec, class Cons, std::size_t CapPerProc = 64>
class ComposableUniversal {
 public:
  // The cells contribute their own strength; the committed-cell
  // counter C is fetch&add, whose consensus number is 2.
  static constexpr int kConsensusNumber =
      std::max(Cons::kConsensusNumber, kConsensusNumberFetchAdd);

  ComposableUniversal(int num_processes, std::size_t max_cells,
                      const char* stage_name = "composable-universal")
      : n_(num_processes), name_(stage_name), requests_(num_processes) {
    SCM_CHECK(num_processes > 0);
    cells_.reserve(max_cells);
    for (std::size_t i = 0; i < max_cells; ++i) {
      cells_.push_back(make_cons());
    }
    announce_ = std::make_unique<AnnounceSlot[]>(
        static_cast<std::size_t>(num_processes));
    per_proc_ = std::make_unique<PerProc[]>(
        static_cast<std::size_t>(num_processes));
  }

  template <class Ctx>
  AbstractResult invoke(Ctx& ctx, const Request& m, const History& init) {
    SCM_CHECK_MSG(0 <= ctx.id() && ctx.id() < n_,
                  "ComposableUniversal: process id out of range");
    PerProc& me = per_proc_[static_cast<std::size_t>(ctx.id())];

    // Already poisoned? Recover immediately (checkAbort task).
    if (aborted_.read(ctx)) return abort_path(ctx, me, m);

    // ---- Initialization (first call per process, with init history) ----
    if (!me.initialized) {
      me.initialized = true;
      if (!init.empty()) {
        const AbstractResult r = run_init(ctx, me, init, m);
        if (!r.committed()) return r;
      }
    }

    // The request may already be decided: abort histories contain the
    // aborting process's own request (Termination), so an inherited
    // init history replayed above — by us or by another process — can
    // cover m. Committing here keeps every request decided at exactly
    // one cell. The aborted re-check is load-bearing: the cell's
    // committed-count increment happened above (in run_init), so if the
    // flag is still clear *now*, any aborter's recovery count covers
    // this cell and Abort Ordering holds; committing without the
    // re-check can race a recovery that missed the cell.
    if (me.performed.contains(m.id)) {
      if (aborted_.read(ctx)) return abort_path(ctx, me, m);
      AbstractResult out;
      out.outcome = Outcome::kCommit;
      out.history = me.performed;
      out.response = beta<Spec>(me.performed, m.id);
      return out;
    }

    // ---- Announce the request --------------------------------------------
    const std::int64_t my_ref = announce(ctx, m);

    // ---- Agree, cell by cell ---------------------------------------------
    for (;;) {
      if (aborted_.read(ctx)) return abort_path(ctx, me, m);
      const std::size_t k = me.performed.size();
      SCM_CHECK_MSG(k < cells_.size(), "ComposableUniversal out of cells");

      // Herlihy-style helping: give priority to the announced request
      // of process (k mod n) if it is still unapplied.
      std::int64_t target = my_ref;
      const std::int64_t helped =
          announce_[k % static_cast<std::size_t>(n_)].ref.read(ctx);
      if (helped != kBottom) {
        const Request hr = fetch(ctx, helped);
        if (!me.performed.contains(hr.id)) target = helped;
      }

      const ConsensusResult decision =
          cells_[k]->run(ctx, kBottom, target);
      if (!decision.committed()) return abort_path(ctx, me, m);

      const Request decided = fetch(ctx, decision.value);
      SCM_CHECK_MSG(!me.performed.contains(decided.id),
                    "request decided twice in universal construction");
      me.performed.append(decided);
      (void)committed_count_.fetch_add(ctx, 1);

      if (decided.id == m.id) {
        // Commit only if the instance was not aborted concurrently: the
        // increment-then-check ordering guarantees any aborter that
        // missed us reads a count covering our cell (Abort Ordering).
        if (aborted_.read(ctx)) return abort_path(ctx, me, m);
        AbstractResult out;
        out.outcome = Outcome::kCommit;
        out.history = me.performed;
        out.response = beta<Spec>(me.performed, m.id);
        return out;
      }
    }
  }

  [[nodiscard]] const char* name() const { return name_; }

 private:
  struct AnnounceSlot {
    NativeRegister<std::int64_t> ref{kBottom};
  };

  struct alignas(kCacheLineSize) PerProc {
    bool initialized = false;
    History performed;  // lPerf: requests applied by this process
  };

  static std::unique_ptr<Cons> make_cons_impl(int n) {
    if constexpr (std::is_constructible_v<Cons, int>) {
      return std::make_unique<Cons>(n);
    } else {
      return std::make_unique<Cons>();
    }
  }
  std::unique_ptr<Cons> make_cons() { return make_cons_impl(n_); }

  // Packs a (process, index) request reference into a consensus value.
  static std::int64_t pack(ProcessId pid, std::uint64_t index) {
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(pid) * CapPerProc + index + 1);
  }

  template <class Ctx>
  Request fetch(Ctx& ctx, std::int64_t ref) const {
    SCM_CHECK_MSG(ref > 0, "invalid request reference");
    const auto raw = static_cast<std::uint64_t>(ref - 1);
    const auto pid = static_cast<ProcessId>(raw / CapPerProc);
    const auto index = raw % CapPerProc;
    return requests_.read_slot(ctx, pid, index);
  }

  // Adds m to the calling process's request log and announce slot.
  template <class Ctx>
  std::int64_t announce(Ctx& ctx, const Request& m) {
    const std::uint64_t index = requests_.append(ctx, m);
    const std::int64_t ref = pack(ctx.id(), index);
    announce_[static_cast<std::size_t>(ctx.id())].ref.write(ctx, ref);
    return ref;
  }

  // Proposes the inherited history, in order, to the leading cells
  // (Section 4.2: "each process proposes, in order, the requests in its
  // (abort) history to the Cons list of the new instance").
  template <class Ctx>
  AbstractResult run_init(Ctx& ctx, PerProc& me, const History& init,
                          const Request& current) {
    for (;;) {
      // First inherited request not yet performed locally.
      const Request* next = nullptr;
      for (const Request& r : init) {
        if (!me.performed.contains(r.id)) {
          next = &r;
          break;
        }
      }
      if (next == nullptr) break;  // fully initialized

      if (aborted_.read(ctx)) return abort_path(ctx, me, current);
      const std::size_t k = me.performed.size();
      SCM_CHECK_MSG(k < cells_.size(), "ComposableUniversal out of cells");
      const std::int64_t ref = announce(ctx, *next);
      const ConsensusResult decision = cells_[k]->run(ctx, ref, ref);
      if (!decision.committed()) return abort_path(ctx, me, current);
      const Request decided = fetch(ctx, decision.value);
      SCM_CHECK_MSG(!me.performed.contains(decided.id),
                    "request decided twice during initialization");
      me.performed.append(decided);
      (void)committed_count_.fetch_add(ctx, 1);
    }
    AbstractResult ok;
    ok.outcome = Outcome::kCommit;
    return ok;
  }

  // Abort recovery: poison the instance, then rebuild a valid abort
  // history from the decided cells (bounded by the committed-cell
  // counter), appending the caller's own request if it never decided
  // (Termination: "h contains m").
  template <class Ctx>
  AbstractResult abort_path(Ctx& ctx, PerProc& me, const Request& m) {
    if (!aborted_.read(ctx)) aborted_.write(ctx, true);
    const std::uint64_t count = committed_count_.read(ctx);

    History habort;
    for (std::uint64_t k = 0; k < count && k < cells_.size(); ++k) {
      const std::int64_t decided = cells_[k]->peek_decision(ctx);
      if (decided == kBottom) break;  // counter overshoot: cell undecided
      const Request r = fetch(ctx, decided);
      if (!habort.append_if_absent(r)) break;  // defensive: stop on repeat
    }
    habort.append_if_absent(m);
    (void)me;  // per-process state unused on the abort path (kept for symmetry)

    AbstractResult out;
    out.outcome = Outcome::kAbort;
    out.history = std::move(habort);
    return out;
  }

  int n_;
  const char* name_;
  std::vector<std::unique_ptr<Cons>> cells_;
  SnapshotLog<Request, CapPerProc> requests_;
  std::unique_ptr<AnnounceSlot[]> announce_;
  std::unique_ptr<PerProc[]> per_proc_;
  NativeRegister<bool> aborted_{false};
  NativeCounter committed_count_;
};

}  // namespace scm
