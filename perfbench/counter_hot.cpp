// counter-hot: one serialization point. Four threads each issue
// fetch&inc operations through
//
//   Adaptive<Combining<FastPipeline<Relay, Relay, Relay, TicketSink>, 16>>
//
// so Combining's election, batching and parking and Adaptive's
// elect/wait actuators do most of the work. Every result is the
// caller's ticket, which makes the run self-checking: each thread's
// tickets strictly increase, and a quiescent window's tickets are
// exactly the counter range it advanced over.
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/adaptive.hpp"
#include "core/combining.hpp"
#include "core/pipeline.hpp"
#include "harness.hpp"
#include "runtime/platform.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using scm::ModuleResult;

// A pipeline stage that reads its gate register and aborts with the
// incremented hop count, so the sink sees how many stages ran.
class Relay {
 public:
  static constexpr int kConsensusNumber = scm::kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const scm::Request& /*m*/,
                      std::optional<scm::SwitchValue> init = std::nullopt) {
    (void)gate_.read(ctx);
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }

 private:
  scm::NativeRegister<int> gate_{0};
};

// Commits hops * 1000 + the fetch&inc ticket.
class TicketSink {
 public:
  static constexpr int kConsensusNumber = scm::kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const scm::Request& /*m*/,
                      std::optional<scm::SwitchValue> init = std::nullopt) {
    const auto t = count_.fetch_add(ctx);
    return ModuleResult::commit(
        static_cast<scm::Response>(init.value_or(0) * 1000) +
        static_cast<scm::Response>(t));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_.peek(); }

 private:
  scm::NativeCounter count_;
};

constexpr std::size_t kSlots = 16;
constexpr scm::Response kTicketBase = 3 * 1000;  // three relays ran

template <bool kOn>
using Pipe = MaybeTraced<scm::FastPipeline<Relay, Relay, Relay, TicketSink>,
                         Layer::kPipeline, kOn>;
template <bool kOn>
using Comb = scm::Combining<Pipe<kOn>, kSlots>;
template <bool kOn>
using Stack = MaybeTraced<
    scm::Adaptive<MaybeTraced<Comb<kOn>, Layer::kCombining, kOn>>,
    Layer::kAdaptive, kOn>;

// Adaptive finds its actuators structurally: behind the shim it must
// still see every knob and counter it drives, or the traced run would
// silently tune nothing.
static_assert(requires(Traced<Comb<true>, Layer::kCombining>& c) {
  c.set_elect_spins(std::uint32_t{1});
  { c.elect_spins() } -> std::convertible_to<std::uint32_t>;
  c.set_yields_before_park(1);
  { c.yields_before_park() } -> std::convertible_to<int>;
  { c.direct_ops() } -> std::convertible_to<std::uint64_t>;
  { c.park_stats() } -> std::same_as<scm::ParkStats>;
});

scm::Request request(int tid, std::uint64_t i) {
  return {(static_cast<std::uint64_t>(tid) << 40) | (i + 1), tid, 0, 0};
}

template <bool kOn>
struct CounterHot {
  struct Snapshot {
    CombiningSnap comb;
    std::uint64_t count = 0;
    std::uint64_t decisions = 0;
    std::uint64_t windows = 0;
  };

  struct Local {
    Local(CounterHot& fx, int t) : ctx(t), tid(t) { fx.trace.install(t); }
    scm::NativeContext ctx;
    int tid;
    TicketOrder order;
    std::uint64_t ticket_sum = 0;
  };

  explicit CounterHot(const Options& o)
      : opts(o), stack(std::make_unique<Stack<kOn>>()), trace(kOn) {}

  auto& adaptive() { return peel(*stack); }
  Comb<kOn>& combining() { return peel(adaptive().object()); }
  TicketSink& sink() {
    return peel(combining().object()).template stage<3>();
  }

  ModuleResult invoke(Local& l, const scm::Request& m) {
    if constexpr (kOn) {
      const OpScope op;
      return stack->invoke(l.ctx, m);
    } else {
      return stack->invoke(l.ctx, m);
    }
  }

  void op(Local& l, std::uint64_t i, ThreadRecord& rec, bool measure) {
    const scm::Request m = request(l.tid, i);
    ModuleResult r;
    if (measure && i % kSampleEvery == 0) {
      const std::uint64_t t0 = now_ns();
      r = invoke(l, m);
      rec.lat_ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
    } else {
      r = invoke(l, m);
    }
    const auto t = static_cast<std::uint64_t>(r.response - kTicketBase);
    if (!r.committed() || !l.order.accept(t)) {
      ++rec.failed;
      return;
    }
    if (measure) l.ticket_sum += t;
  }

  void quiesce(Local& /*l*/, ThreadRecord& /*rec*/) {}

  void begin_window(Local& l, bool on) {
    TraceSet::record(on);
    if (!on) ticket_sum.fetch_add(l.ticket_sum, std::memory_order_relaxed);
  }

  Snapshot snapshot() {
    return {snap_combining(combining()), sink().count(),
            adaptive().decisions(), adaptive().windows()};
  }

  void finish(const Snapshot& a, const Snapshot& b,
              const std::vector<ThreadRecord>& recs, Report& rep) {
    std::uint64_t n = 0;
    for (const ThreadRecord& r : recs) n += r.ops;
    check_ticket_window(rep, n, ticket_sum.load(std::memory_order_relaxed),
                        a.count, b.count);
    const std::size_t occupied = combining().occupied();
    check_residue(rep, occupied);
    combining_metrics(rep, a.comb, b.comb, static_cast<double>(n), occupied);
    rep.metrics["adaptive.decisions"] =
        static_cast<double>(b.decisions - a.decisions);
    rep.metrics["adaptive.windows"] = static_cast<double>(b.windows - a.windows);
    rep.metrics["adaptive.elect_spins_final"] =
        static_cast<double>(combining().elect_spins());
    rep.metrics["adaptive.yields_before_park_final"] =
        static_cast<double>(combining().yields_before_park());
    rep.layers = {"runtime",  "combining", "parking",
                  "adaptive", "pipeline",  "workload"};
    trace.report(rep, opts);
  }

  const Options& opts;
  std::unique_ptr<Stack<kOn>> stack;
  TraceSet trace;
  std::atomic<std::uint64_t> ticket_sum{0};
};

}  // namespace

void run_counter_hot(const Options& opts, Report& rep) {
  if (opts.traced()) {
    ClosedLoop<CounterHot<true>>(opts).run(rep);
  } else {
    ClosedLoop<CounterHot<false>>(opts).run(rep);
  }
}

std::vector<std::string> counter_hot_probes() {
  std::vector<std::string> errs;
  auto bare = std::make_unique<Stack<false>>();
  auto traced = std::make_unique<Stack<true>>();
  // Every other op sampled, so the shims record on the probe's path.
  ThreadTrace tr(2);
  tr.set_recording(true);
  t_trace = &tr;
  scm::NativeContext c1(0);
  scm::NativeContext c2(0);
  // Several Adaptive windows, so monitor ticks happen on both sides.
  for (std::uint64_t i = 0; i < 4 * scm::Adaptive<Comb<false>>::kWindowOps;
       ++i) {
    const ModuleResult want = bare->invoke(c1, request(0, i));
    const OpScope op;
    const ModuleResult got = traced->invoke(c2, request(0, i));
    if (got.outcome != want.outcome || got.response != want.response) {
      errs.push_back("counter-hot: traced result differs at op " +
                     std::to_string(i));
      break;
    }
  }
  t_trace = nullptr;
  if (!(c1.counters() == c2.counters())) {
    errs.emplace_back("counter-hot: traced step counts differ");
  }
  for (Layer l : {Layer::kAdaptive, Layer::kCombining, Layer::kPipeline}) {
    if (tr.layer(l).calls == 0) {
      errs.push_back(std::string("counter-hot: no ") +
                     kLayerNames[static_cast<std::size_t>(l)] +
                     " span recorded");
    }
  }
  return errs;
}

}  // namespace perfbench
