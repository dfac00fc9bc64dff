// ipc-counter: the cross-process counterpart of counter-hot. This
// process serves ShmCombining<ShmCounter, 16> (the compose.shm stack)
// as its only combiner; three forked client processes each issue
// fetch&inc operations with may_combine = false, so every operation is
// a cross-process round trip through the address-free slot protocol
// and the shared futex. Only the shm layer does work here.
//
// The segment is an anonymous shared mapping inherited across fork():
// it holds the combiner, the phase word the server drives, and one
// cell per client with its handshake state, window totals and latency
// samples. Clients time one in kSampleEvery operations into their
// cell; the server reads the cells once each client reports done.
#include "shm/shm_arena.hpp"  // defines SCM_HAS_POSIX_SHM

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "traced.hpp"
#include "workloads.hpp"

#if SCM_HAS_POSIX_SHM
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "history/specs.hpp"
#include "runtime/context.hpp"
#include "shm/shm_combining.hpp"
#include "shm/shm_counter.hpp"
#include "shm/shm_layout.hpp"
#endif

namespace perfbench {

#if SCM_HAS_POSIX_SHM

namespace {

constexpr int kClients = kThreads - 1;  // plus the serving process
constexpr std::size_t kLogCapacity = std::size_t{1} << 18;
using IpcCombining = scm::ShmCombining<scm::ShmCounter, 16>;

// Server-driven phases.
enum : std::uint32_t { kBoot, kWarmup, kPause, kMeasure, kStop, kExit };
// Client-reported states.
enum : std::uint32_t { kBooting, kReady, kPaused, kDone };

struct LatencySample {
  std::uint64_t start_ns;
  std::uint32_t dur_ns;
  std::uint32_t reserved;
};

// One client's record. The plain fields are written by the client
// before its release store of kDone and read by the server after the
// matching acquire load; `progress` and `sampled` are the running
// counts the server reads at slice boundaries.
struct alignas(scm::kCacheLineSize) ClientCell {
  std::atomic<std::uint32_t> state{kBooting};
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> sampled{0};
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t ticket_sum = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t rmws = 0;
  std::uint64_t samples = 0;
  LatencySample log[kLogCapacity];
};

struct Segment {
  IpcCombining comb;
  alignas(scm::kCacheLineSize) std::atomic<std::uint32_t> phase{kBoot};
  ClientCell cells[kClients];
};

SCM_ASSERT_ADDRESS_FREE(LatencySample);
SCM_ASSERT_ADDRESS_FREE(ClientCell);
SCM_ASSERT_ADDRESS_FREE(Segment);

using Clock = std::chrono::steady_clock;

[[noreturn]] void client_main(Segment& seg, int k, pid_t server) {
  // Never outlive the server: a killed benchmark leaves no clients.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != server) ::_exit(3);
  ClientCell& cell = seg.cells[k];
  scm::NativeContext ctx(k);
  const auto phase = [&seg] {
    return seg.phase.load(std::memory_order_acquire);
  };
  cell.state.store(kReady, std::memory_order_release);
  while (phase() == kBoot) std::this_thread::yield();
  if (phase() == kExit) ::_exit(0);

  TicketOrder order;
  std::uint64_t seq = 0;
  std::uint64_t failed = 0;
  std::uint64_t sum = 0;
  const auto op = [&](bool measure, bool sample) {
    const scm::Request m{(static_cast<std::uint64_t>(k) << 40) | ++seq, k,
                         scm::CounterSpec::kFetchInc, 0};
    const std::uint64_t t0 = sample ? now_ns() : 0;
    const scm::ModuleResult r =
        seg.comb.invoke(ctx, m, std::nullopt, /*may_combine=*/false);
    if (sample && cell.samples < kLogCapacity) {
      cell.log[cell.samples++] = {
          t0, static_cast<std::uint32_t>(now_ns() - t0), 0};
    }
    const auto t = static_cast<std::uint64_t>(r.response);
    if (!r.committed() || !order.accept(t)) {
      ++failed;
    } else if (measure) {
      sum += t;
    }
  };

  while (phase() == kWarmup) op(false, false);
  cell.state.store(kPaused, std::memory_order_release);
  while (phase() == kPause) std::this_thread::yield();

  const scm::StepCounters s0 = ctx.counters();
  std::uint64_t n = 0;
  while (phase() == kMeasure) {
    op(true, n++ % kSampleEvery == 0);
    cell.progress.store(n, std::memory_order_relaxed);
    cell.sampled.store(cell.samples, std::memory_order_relaxed);
  }
  const scm::StepCounters ds = ctx.counters() - s0;
  cell.ops = n;
  cell.failed = failed;  // warmup failures count too
  cell.ticket_sum = sum;
  cell.reads = ds.reads;
  cell.writes = ds.writes;
  cell.rmws = ds.rmws;
  cell.state.store(kDone, std::memory_order_release);
  while (phase() != kExit) std::this_thread::yield();
  ::_exit(0);
}

// One set-up: the mapped segment and its forked clients, parked in
// kBoot once they have reported ready. Destroying it stops and reaps
// every client and unmaps the segment.
class Setup {
 public:
  Setup() {
    void* p = ::mmap(nullptr, sizeof(Segment), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return;
    mem_ = p;
    seg_ = new (p) Segment;
    const pid_t self = ::getpid();
    for (int k = 0; k < kClients; ++k) {
      const pid_t pid = ::fork();
      if (pid == 0) client_main(*seg_, k, self);
      if (pid < 0) return;
      clients_.push_back(pid);
    }
  }
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  ~Setup() {
    if (seg_ != nullptr) seg_->phase.store(kExit, std::memory_order_release);
    reap(std::chrono::seconds(5));
    for (pid_t pid : clients_) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    if (mem_ != nullptr) ::munmap(mem_, sizeof(Segment));
  }

  [[nodiscard]] bool ok() const noexcept {
    return seg_ != nullptr &&
           clients_.size() == static_cast<std::size_t>(kClients);
  }
  [[nodiscard]] Segment& seg() noexcept { return *seg_; }

  // CPU time of this process and every client so far.
  [[nodiscard]] double cpu_seconds_all() const {
    double s = cpu_seconds();
    for (pid_t pid : clients_) {
      clockid_t clk{};
      timespec ts{};
      if (::clock_getcpuclockid(pid, &clk) == 0 &&
          ::clock_gettime(clk, &ts) == 0) {
        s += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
    return s;
  }

  // True once every client's state reached `state`; false at the
  // deadline. `serve` runs between checks (clients may need service
  // to get there).
  template <class Serve>
  bool await_clients(std::uint32_t state, Clock::duration limit,
                     Serve&& serve) {
    const auto deadline = Clock::now() + limit;
    for (std::uint32_t tick = 0;; ++tick) {
      bool all = true;
      for (const ClientCell& c : seg_->cells) {
        all = all && c.state.load(std::memory_order_acquire) == state;
      }
      if (all) return true;
      serve();
      if ((tick & 0xff) == 0 && Clock::now() > deadline) return false;
    }
  }

  // Waits for every client to exit, up to `limit`; returns how many
  // exited with a status other than 0. Reaped clients are forgotten.
  int reap(Clock::duration limit) {
    int bad = 0;
    const auto deadline = Clock::now() + limit;
    while (!clients_.empty() && Clock::now() < deadline) {
      int status = 0;
      const pid_t pid = ::waitpid(clients_.back(), &status, WNOHANG);
      if (pid == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (pid < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) ++bad;
      clients_.pop_back();
    }
    return bad + static_cast<int>(clients_.size());
  }

 private:
  void* mem_ = nullptr;
  Segment* seg_ = nullptr;
  std::vector<pid_t> clients_;
};

struct ShmSnap {
  CombiningSnap comb;
  std::uint64_t count = 0;
  scm::StepCounters steps{};
};

ShmSnap snap(Segment& seg, const scm::NativeContext& ctx) {
  return {snap_combining(seg.comb),
          static_cast<std::uint64_t>(seg.comb.object().value()),
          ctx.counters()};
}

}  // namespace

void run_ipc_counter(const Options& opts, Report& rep) {
  rep.layers = {"runtime", "shm", "workload"};
  scm::Samples setups;
  std::unique_ptr<Setup> setup;
  const auto no_serve = [] {};
  for (int k = 0; k < kSetups; ++k) {
    setup.reset();
    const std::uint64_t t0 = now_ns();
    setup = std::make_unique<Setup>();
    if (!setup->ok() ||
        !setup->await_clients(kReady, std::chrono::seconds(20), no_serve)) {
      rep.violation("clients failed to start");
      return;
    }
    setups.add(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Segment& seg = setup->seg();
  scm::NativeContext ctx(kClients);
  ThreadTrace tr;
  const bool traced = opts.traced();
  if (traced) t_trace = &tr;
  std::uint64_t served_sampled = 0;
  const auto serve = [&] {
    if (!traced) {
      seg.comb.try_serve(ctx);
      return;
    }
    const OpScope op;
    const std::uint64_t before = op.sampled() ? seg.comb.combined_ops() : 0;
    {
      const SpanScope span(Layer::kShmServe);
      seg.comb.try_serve(ctx);
    }
    if (op.sampled()) served_sampled += seg.comb.combined_ops() - before;
  };
  const auto serve_until = [&](std::uint64_t end_ns) {
    for (std::uint32_t tick = 0;; ++tick) {
      serve();
      if ((tick & 0xff) == 0 && now_ns() >= end_ns) return;
    }
  };
  const auto fail = [&](const char* what) {
    rep.violation(what);
    t_trace = nullptr;
  };

  const std::uint64_t w0 = now_ns();
  seg.phase.store(kWarmup, std::memory_order_release);
  serve_until(w0 + static_cast<std::uint64_t>(kWarmupS * 1e9));
  seg.phase.store(kPause, std::memory_order_release);
  if (!setup->await_clients(kPaused, std::chrono::seconds(20), serve)) {
    return fail("clients did not pause after warmup");
  }
  const double warmup_s = static_cast<double>(now_ns() - w0) * 1e-9;

  const ShmSnap before = snap(seg, ctx);
  std::vector<Mark> marks{mark(setup->cpu_seconds_all(), seg.cells)};
  const std::uint64_t t0 = marks.front().t_ns;
  tr.set_recording(true);
  seg.phase.store(kMeasure, std::memory_order_release);
  const int slices = slice_count(opts.seconds);
  for (int k = 1; k <= slices; ++k) {
    serve_until(t0 + static_cast<std::uint64_t>(opts.seconds * 1e9 * k / slices));
    if (k < slices) marks.push_back(mark(setup->cpu_seconds_all(), seg.cells));
  }
  seg.phase.store(kStop, std::memory_order_release);
  if (!setup->await_clients(kDone, std::chrono::seconds(20), serve)) {
    return fail("clients did not finish the window");
  }
  marks.push_back(mark(setup->cpu_seconds_all(), seg.cells));
  tr.set_recording(false);
  t_trace = nullptr;
  const ShmSnap after = snap(seg, ctx);
  const std::size_t occupied = seg.comb.occupied();

  // Every client has reported; release them and check they exited 0.
  seg.phase.store(kExit, std::memory_order_release);
  const int bad_exits = setup->reap(std::chrono::seconds(20));
  if (bad_exits != 0) rep.violation("client exited abnormally", bad_exits);

  std::vector<ThreadRecord> recs(kClients);
  std::vector<std::vector<Span>> client_spans(kClients);
  std::uint64_t ticket_sum = 0;
  scm::StepCounters steps = after.steps - before.steps;
  for (int k = 0; k < kClients; ++k) {
    const ClientCell& c = seg.cells[k];
    ThreadRecord& r = recs[static_cast<std::size_t>(k)];
    r.ops = c.ops;
    r.failed = c.failed;
    for (std::uint64_t s = 0; s < c.samples; ++s) {
      r.lat_ns.push_back(c.log[s].dur_ns);
      if (client_spans[k].size() < ThreadTrace::kRawSpans) {
        client_spans[k].push_back({c.log[s].start_ns, c.log[s].dur_ns,
                                   c.log[s].dur_ns, static_cast<std::uint32_t>(s),
                                   Layer::kShmClient, 0});
      }
    }
    ticket_sum += c.ticket_sum;
    steps += scm::StepCounters{c.reads, c.writes, c.rmws};
  }
  window_metrics(rep, setups, warmup_s, marks, recs);
  const auto n = static_cast<double>(rep.attempted);
  rep.metrics["runtime.steps_per_op"] = ratio(static_cast<double>(steps.total()), n);
  rep.metrics["runtime.rmws_per_op"] = ratio(static_cast<double>(steps.rmws), n);

  check_ticket_window(rep, rep.attempted, ticket_sum, before.count,
                      after.count);
  check_residue(rep, occupied);

  const auto direct = static_cast<double>(after.comb.direct - before.comb.direct);
  const auto combined =
      static_cast<double>(after.comb.combined - before.comb.combined);
  rep.metrics["shm.fastpath_share"] = ratio(direct, direct + combined);
  rep.metrics["shm.parks_per_mop"] = ratio(
      static_cast<double>(after.comb.park.parks - before.comb.park.parks) * 1e6,
      n);
  rep.metrics["shm.futex_syscalls_per_mop"] =
      ratio(static_cast<double>(after.comb.park.futex_syscalls -
                                before.comb.park.futex_syscalls) *
                1e6,
            n);
  rep.metrics["shm.occupied_after"] = static_cast<double>(occupied);

  if (traced) {
    const auto& acc = tr.layer(Layer::kShmServe);
    rep.metrics["shm.serve_self_ns_per_op"] =
        ratio(static_cast<double>(acc.self_sum),
              static_cast<double>(served_sampled));
    // A client's shm crossing has no child span in its own process, so
    // its self time is its whole round trip. Like the other layers'
    // self_ns_p99 it is the p99 over every sampled crossing of the
    // traced run, not a median of per-slice p99s.
    std::vector<std::uint32_t> client_self;
    for (const ThreadRecord& r : recs) {
      client_self.insert(client_self.end(), r.lat_ns.begin(), r.lat_ns.end());
    }
    rep.metrics["shm.client_self_ns_p99"] =
        quantile(std::move(client_self), 0.99);
    std::vector<TraceTrack> tracks{{0, 0, tr.spans()}};
    for (int k = 0; k < kClients; ++k) {
      tracks.push_back({k + 1, 0, client_spans[static_cast<std::size_t>(k)]});
    }
    rep.check(write_chrome_trace(opts.trace_path, opts, tracks),
              "could not write the trace file");
  }
}

#else  // !SCM_HAS_POSIX_SHM

void run_ipc_counter(const Options& /*opts*/, Report& rep) {
  rep.violation("ipc-counter needs POSIX shared memory and fork()");
}

#endif

}  // namespace perfbench
