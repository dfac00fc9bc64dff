// Scenario compose.shm (E16) — cross-process composition over shared
// memory. Every other scenario funnels THREADS through a combiner;
// this one funnels PROCESSES: the scenario body acts as the server —
// it creates a ShmArena, places one ShmCombining<ShmCounter> plus
// per-client accounting cells and a start barrier inside it, publishes
// them in the discovery table, and forks/execs N copies of this same
// binary as `scm_bench --shm-role=client` workers that attach BY NAME
// and submit fetch&increment ops with may_combine = false while the
// server serves. This is the paper's cost-of-composition question in
// its production shape: the end-to-end cost of funneling independent
// address spaces through one serialization point.
//
// Two measured phases per repetition, each on a FRESH segment:
//
//   exact — N clients x ops; gated on exact-count equivalence
//     (final counter == N*ops == every cell's started == completed),
//     every client exiting 0, and an empty slot array afterwards.
//   crash — same, but the server SIGKILLs one client after observing
//     its first op. Gated on the reconciliation bound
//     sum(completed) <= counter <= sum(started), the surviving
//     clients' counts staying exact, the victim's death being the
//     injected signal, and reclaim_dead() leaving zero occupied slots
//     (the dead client's abandoned publication record is swept, the
//     run completes). On a tiny --ops the victim can win the race and
//     finish before the signal lands; the phase then degrades to a
//     second exact-equivalence check (recorded in extra.victim_killed)
//     rather than reporting a vacuous pass.
//   stall — one client, and the server sleeps ~100ms after releasing
//     the start barrier before serving. The client's first op outlives
//     the whole spin/yield ladder, so it must escalate to the shared
//     futex word (rung 3) instead of burning its core — gated on the
//     segment-resident park counter being nonzero (parks are counted
//     under the yield fallback too, so the gate holds in both build
//     modes), on top of the exact-equivalence gates.
//
// All phases surface the combiner's parking telemetry
// (parks/wakes/spurious_wakes/futex_syscalls) as extra columns; the
// counters live inside the shared segment, so they aggregate across
// every attached process.
//
// Wall-clock starts when the server releases the start barrier (all
// clients attached and parked) and stops when the last live client
// exits, so ns/op covers the full cross-process round trip including
// combiner scheduling. Every wait carries a deadline: a wedged run
// fails the claim instead of hanging CI.
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "bench/scenario.hpp"
#include "bench/shm_e16.hpp"
#include "bench/shm_role.hpp"
#include "shm/shm_arena.hpp"

#if SCM_HAS_POSIX_SHM
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>

#include "runtime/context.hpp"
#include "support/parking.hpp"
#endif

namespace {

using namespace scm;
using namespace scm::bench;

#if SCM_HAS_POSIX_SHM

using clock_type = std::chrono::steady_clock;

struct Child {
  pid_t pid = -1;
  int status = 0;
  bool exited = false;
};

// Reaps any children that have exited since the last call (WNOHANG).
int reap(std::vector<Child>& children) {
  int live = 0;
  for (Child& c : children) {
    if (c.exited) continue;
    const pid_t r = ::waitpid(c.pid, &c.status, WNOHANG);
    if (r == c.pid) {
      c.exited = true;
    } else {
      ++live;
    }
  }
  return live;
}

pid_t spawn_client(const std::string& exe, const std::string& segment,
                   int client_id, std::uint64_t ops) {
  const std::string name_arg = "--shm-name=" + segment;
  const std::string id_arg = "--shm-id=" + std::to_string(client_id);
  const std::string ops_arg = "--ops=" + std::to_string(ops);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: become a client of the same binary. execv only returns on
  // failure; _exit (not exit) so no parent-side atexit state runs
  // twice.
  char* argv[] = {const_cast<char*>(exe.c_str()),
                  const_cast<char*>("--shm-role=client"),
                  const_cast<char*>(name_arg.c_str()),
                  const_cast<char*>(id_arg.c_str()),
                  const_cast<char*>(ops_arg.c_str()), nullptr};
  ::execv(exe.c_str(), argv);
  ::_exit(127);
}

struct PhaseOutcome {
  bool ok = true;
  std::string why;  // first failed gate, for the claim text
  double seconds = 0.0;
  std::uint64_t executed = 0;  // final counter value
  std::uint64_t reclaimed = 0;
  bool victim_killed = false;
  ParkStats parking;  // segment-resident, so cross-process totals

  void fail(const std::string& gate) {
    if (ok) why = gate;
    ok = false;
  }
};

// One multi-process run on a fresh segment. `crash` injects the
// SIGKILL. Returns nullopt only when the segment itself could not be
// built (treated as a failed claim by the caller).
std::optional<PhaseOutcome> run_phase(const std::string& segment, int procs,
                                      std::uint64_t ops,
                                      std::uint64_t segment_bytes, bool crash,
                                      int stall_ms = 0) {
  // Defensive: a previous crashed run may have leaked the name.
  ShmArena::unlink(segment);
  std::string err;
  auto arena = ShmArena::create(segment, segment_bytes, &err);
  if (!arena) return std::nullopt;

  const std::uint64_t comb_off = arena->construct<E16Combining>();
  const std::uint64_t cells_off =
      arena->alloc(sizeof(E16ClientCell) * static_cast<std::size_t>(procs),
                   alignof(E16ClientCell));
  const std::uint64_t barrier_off = arena->construct<ShmSpinBarrier>(
      static_cast<std::uint32_t>(procs) + 1);  // clients + server
  if (comb_off == 0 || cells_off == 0 || barrier_off == 0) {
    ShmArena::unlink(segment);
    return std::nullopt;
  }
  auto* cells = new (arena->at<void>(cells_off))
      E16ClientCell[static_cast<std::size_t>(procs)];
  const bool published =
      arena->publish(kE16CombiningName, comb_off, sizeof(E16Combining),
                     E16Combining::kTypeTag) &&
      arena->publish(kE16CellsName, cells_off,
                     sizeof(E16ClientCell) * static_cast<std::size_t>(procs),
                     kE16CellsTag) &&
      arena->publish(kE16BarrierName, barrier_off, sizeof(ShmSpinBarrier),
                     kE16BarrierTag);
  if (!published) {
    ShmArena::unlink(segment);
    return std::nullopt;
  }
  E16Combining& comb = *arena->at<E16Combining>(comb_off);
  ShmSpinBarrier& start = *arena->at<ShmSpinBarrier>(barrier_off);

  PhaseOutcome out;
  const std::string exe = self_exe();
  std::vector<Child> children;
  children.reserve(static_cast<std::size_t>(procs));
  for (int k = 0; k < procs; ++k) {
    children.push_back({spawn_client(exe, segment, k, ops)});
  }

  NativeContext ctx(procs);  // the server's own context id
  const auto deadline = clock_type::now() + std::chrono::seconds(60);

  // Park until every client has attached, resolved, and arrived; a
  // client that failed setup exits nonzero instead of arriving, so
  // also watch for early deaths.
  while (start.arrived() < static_cast<std::uint32_t>(procs)) {
    if (clock_type::now() > deadline) {
      out.fail("clients failed to reach the start barrier");
      break;
    }
    if (reap(children) < procs) {
      out.fail("a client exited before the start barrier");
      break;
    }
  }
  const auto t0 = clock_type::now();
  if (out.ok) start.arrive_and_wait();  // release the run
  if (out.ok && stall_ms > 0) {
    // Stall injection: the clients are running, their first ops are
    // published, and nobody serves — long enough that their wait
    // escalates past the whole spin/yield ladder into a park.
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }

  // Serve until every child has exited. The server is the only
  // combiner (clients publish with may_combine = false).
  const pid_t victim = children.empty() ? -1 : children.front().pid;
  auto t1 = t0;
  std::uint32_t tick = 0;
  while (out.ok) {
    comb.try_serve(ctx);
    // The kill is checked on every pass, not on the tick below: the
    // victim's ops complete only through these passes, so killing on
    // the first pass that sees it started leaves it mid-run whatever
    // its op count (a coarse tick let short runs finish first).
    if (crash && !out.victim_killed &&
        cells[0].started.load(std::memory_order_acquire) >= 1 &&
        !children.front().exited) {
      if (::kill(victim, SIGKILL) == 0) out.victim_killed = true;
    }
    // Bookkeeping (waitpid probes, reclaim sweeps) runs on a coarse
    // tick: these are syscalls, and paying them per serve pass would
    // pace every client round trip at syscall latency.
    if ((++tick & 0x3ff) != 0) continue;
    if (out.victim_killed) out.reclaimed += comb.reclaim_dead(ctx);
    const int live = reap(children);
    if (live == 0) {
      t1 = clock_type::now();
      break;
    }
    if (clock_type::now() > deadline) {
      out.fail("run did not complete before the deadline");
      break;
    }
  }

  // Quiesce: execute anything still published, then sweep the dead.
  // drain() is safe here even when nothing is pending (satellite-test
  // covered for the in-process twin): it returns immediately.
  if (out.ok) {
    comb.drain(ctx);
    out.reclaimed += comb.reclaim_dead(ctx);
    if (comb.occupied() != 0) {
      out.fail("slots still occupied after drain + reclaim_dead");
    }
  }

  // Reconciliation gates.
  if (out.ok) {
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.executed = static_cast<std::uint64_t>(comb.object().value());
    std::uint64_t started_sum = 0, completed_sum = 0;
    for (int k = 0; k < procs; ++k) {
      const std::uint64_t s =
          cells[k].started.load(std::memory_order_acquire);
      const std::uint64_t c =
          cells[k].completed.load(std::memory_order_acquire);
      started_sum += s;
      completed_sum += c;
      const bool is_victim = out.victim_killed && k == 0;
      if (!is_victim && (s != ops || c != ops)) {
        out.fail("a surviving client's counts are not exact");
      }
    }
    for (int k = 0; k < procs; ++k) {
      const Child& c = children[static_cast<std::size_t>(k)];
      const bool is_victim = out.victim_killed && k == 0;
      if (is_victim) {
        if (!WIFSIGNALED(c.status) || WTERMSIG(c.status) != SIGKILL) {
          out.fail("victim did not die of the injected SIGKILL");
        }
      } else if (!WIFEXITED(c.status) || WEXITSTATUS(c.status) != 0) {
        out.fail("client exited nonzero (code " +
                 std::to_string(WIFEXITED(c.status) ? WEXITSTATUS(c.status)
                                                    : -1) +
                 ")");
      }
    }
    if (out.victim_killed) {
      // The kill leaves at most one op ambiguous; both bounds stay
      // exact for every survivor.
      if (!(completed_sum <= out.executed && out.executed <= started_sum)) {
        out.fail("crash counts do not reconcile");
      }
    } else if (out.executed != static_cast<std::uint64_t>(procs) * ops) {
      out.fail("final counter != procs * ops");
    }
  } else {
    // Failed mid-run: don't leave children behind.
    for (Child& c : children) {
      if (!c.exited) ::kill(c.pid, SIGKILL);
    }
    while (reap(children) > 0) {
    }
  }

  out.parking = comb.park_stats();
  ShmArena::unlink(segment);
  return out;
}

ScenarioResult run(const BenchParams& params) {
  ScenarioResult result;
  const int procs = params.shm_procs > 0 ? params.shm_procs : 2;

  // Unique per rep AND per process: a previous rep's segment is
  // unlinked by then, but crashed runs must not collide either.
  static int run_counter = 0;
  const std::string base = "/scm-e16-" + std::to_string(::getpid()) + "-" +
                           std::to_string(run_counter++);

  bool ok = true;
  std::string why;
  const auto record = [&](const char* name, int phase_procs,
                          std::uint64_t offered_ops,
                          const std::optional<PhaseOutcome>& out,
                          bool crash) {
    PhaseMetrics pm;
    pm.phase = std::string(name) + " procs=" + std::to_string(phase_procs);
    if (!out.has_value()) {
      ok = false;
      if (why.empty()) why = "segment setup failed";
      result.phases.push_back(std::move(pm));
      return;
    }
    pm.ops = out->executed;
    pm.seconds = out->seconds;
    pm.extra["procs"] = static_cast<double>(phase_procs);
    pm.extra["offered_ops"] = static_cast<double>(offered_ops);
    pm.extra["crash"] = crash ? 1.0 : 0.0;
    pm.extra["victim_killed"] = out->victim_killed ? 1.0 : 0.0;
    pm.extra["reclaimed_slots"] = static_cast<double>(out->reclaimed);
    pm.extra["parks"] = static_cast<double>(out->parking.parks);
    pm.extra["wakes"] = static_cast<double>(out->parking.wakes);
    pm.extra["spurious_wakes"] =
        static_cast<double>(out->parking.spurious_wakes);
    pm.extra["futex_syscalls"] =
        static_cast<double>(out->parking.futex_syscalls);
    result.phases.push_back(std::move(pm));
    if (!out->ok) {
      ok = false;
      if (why.empty()) why = out->why;
    }
  };

  const auto exact = run_phase(base + "-a", procs, params.ops,
                               params.shm_segment_bytes, /*crash=*/false);
  record("exact", procs, static_cast<std::uint64_t>(procs) * params.ops,
         exact, false);

  // Crash phase: more ops per client so the victim is still mid-run
  // when the signal lands even at smoke-test sizes.
  const std::uint64_t crash_ops = params.ops * 4;
  const auto crashed = run_phase(base + "-b", procs, crash_ops,
                                 params.shm_segment_bytes, /*crash=*/true);
  record("crash", procs, static_cast<std::uint64_t>(procs) * crash_ops,
         crashed, true);

  // Stall phase: one client against a server that sleeps 100ms before
  // serving. The client MUST park (spinning for 100ms would also pass
  // the counting gates — the park counter is what distinguishes a
  // waiter that yielded its core from one that burned it).
  const auto stalled = run_phase(base + "-c", /*procs=*/1, params.ops,
                                 params.shm_segment_bytes, /*crash=*/false,
                                 /*stall_ms=*/100);
  record("stall", 1, params.ops, stalled, false);
  if (stalled.has_value() && stalled->ok && stalled->parking.parks == 0) {
    ok = false;
    if (why.empty()) why = "stalled client never parked";
  }

  result.claim =
      "independent processes attach by name and funnel through one "
      "ShmCombining<ShmCounter>: exact-count equivalence (final counter == "
      "procs * ops, every client's started == completed == ops), and with "
      "one client SIGKILLed mid-run the counts still reconcile "
      "(sum completed <= counter <= sum started), the dead client's slots "
      "are reclaimed, and the run completes; a client facing a stalled "
      "server parks instead of spinning" +
      (why.empty() ? std::string() : " [failed: " + why + "]");
  result.claim_holds = ok;
  return result;
}

#else  // !SCM_HAS_POSIX_SHM

ScenarioResult run(const BenchParams& params) {
  (void)params;
  ScenarioResult result;
  PhaseMetrics pm;
  pm.phase = "skipped";
  pm.extra["skipped"] = 1.0;
  result.phases.push_back(std::move(pm));
  result.claim = "skipped: no POSIX shared memory on this platform";
  result.claim_holds = true;
  return result;
}

#endif

SCM_BENCH_REGISTER("compose.shm", "E16",
                   "cross-process composition: N forked scm_bench clients "
                   "submit into one shared-segment combiner; exact-count "
                   "equivalence + SIGKILL crash reconciliation",
                   Backend::kNative, run);

}  // namespace
