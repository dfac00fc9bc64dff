// Layer tracing for the traced run: a forwarding shim placed at every
// layer boundary of a composed stack, recording spans for a sample of
// outermost operations.
//
// Traced<Obj, L> is Obj with every entry point (invoke, invoke_batch,
// submit, ticket poll/wait) wrapped in a span of layer L. The driver
// marks each outermost operation with an OpScope; one in kSampleEvery
// of them per thread is sampled, and only while a sampled operation is
// active do the shims record. A span's self time is its duration minus
// the time its child spans cover, so the stack of spans of one
// operation attributes every nanosecond to exactly one layer:
//
//   adaptive [ combining [ wait ... pipeline [ batch ] ... ] ]
//
// Spans go to per-thread buffers allocated at set-up: per layer a call
// count, a self-time sum and a vector of self times (for the p99), and
// a bounded list of raw spans that is written out as Chrome
// trace-event JSON once the run ends. Nothing is shared between
// threads on the recording path. Each span costs two clock reads
// (about 30 ns each on the reference host), which the self times of
// the layers around it absorb; compare self times between commits,
// not with untraced latencies.
//
// The shim forwards the telemetry and tuning surface of what it wraps
// (direct_ops, park_stats, set_elect_spins, ...), so an Adaptive above
// a traced Combining detects and drives the same actuators as above a
// bare one. A pending ticket of a sampled operation is re-issued
// through the shim's own TicketSource, so the later poll()/wait() — the
// time the operation waits in the layer — is a span of that layer too.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/async.hpp"
#include "core/batch.hpp"
#include "core/module.hpp"
#include "core/sharding.hpp"
#include "harness.hpp"
#include "support/assert.hpp"
#include "support/parking.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kAdaptive,
  kCombining,
  kPipeline,
  kCaching,
  kSharding,
  kStore,
  kShmServe,
  kShmClient,
};
inline constexpr std::size_t kLayerCount = 8;
inline constexpr std::array<const char*, kLayerCount> kLayerNames{
    "adaptive", "combining", "pipeline",  "caching",
    "sharding", "store",     "shm.serve", "shm.client"};

struct Span {
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t self_ns = 0;
  std::uint32_t op = 0;  // sampled-operation number within its thread
  Layer layer = Layer::kStore;
  std::uint8_t depth = 0;
};

// One thread's span recorder. Owned by the workload fixture (so it
// outlives the worker), installed on the worker as t_trace.
class ThreadTrace {
 public:
  // Raw spans kept per thread for the trace file; the per-layer
  // accumulators see every span regardless.
  static constexpr std::size_t kRawSpans = 8192;

  explicit ThreadTrace(std::uint64_t period = kSampleEvery) : period_(period) {
    spans_.reserve(kRawSpans);
    for (auto& acc : acc_) acc.self_ns.reserve(1u << 16);
  }
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  struct LayerAcc {
    std::uint64_t calls = 0;
    std::uint64_t self_sum = 0;
    std::vector<std::uint32_t> self_ns;
  };

  // Only the measured window records.
  void set_recording(bool on) noexcept { recording_ = on; }

  // Marks the start of an outermost operation; true if it is sampled.
  bool begin_op() noexcept {
    if (!recording_ || ++ops_ % period_ != 0) return false;
    active_ = true;
    op_ = static_cast<std::uint32_t>(sampled_++);
    return true;
  }
  // Re-enters a sampled operation later (the completion of an async
  // submission), so its spans are attributed to the same operation.
  void resume_op(std::uint32_t op) noexcept {
    active_ = true;
    op_ = op;
  }
  void end_op() noexcept { active_ = false; }
  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint32_t current_op() const noexcept { return op_; }

  void open(Layer l) noexcept {
    SCM_CHECK_MSG(depth_ < stack_.size(), "span nesting too deep");
    stack_[depth_++] = {now_ns(), 0, l};
  }
  void close() {
    const std::uint64_t end = now_ns();
    const Open o = stack_[--depth_];
    const std::uint64_t dur = end - o.start;
    const std::uint64_t self = dur > o.child_ns ? dur - o.child_ns : 0;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    LayerAcc& acc = acc_[static_cast<std::size_t>(o.layer)];
    ++acc.calls;
    acc.self_sum += self;
    acc.self_ns.push_back(static_cast<std::uint32_t>(self));
    if (spans_.size() < kRawSpans) {
      spans_.push_back({o.start, static_cast<std::uint32_t>(dur),
                        static_cast<std::uint32_t>(self), op_, o.layer,
                        static_cast<std::uint8_t>(depth_)});
    }
  }

  // A pending ticket of a sampled operation, re-issued by a shim. The
  // ticket's owner is this thread, so the records need no atomics.
  struct Pending {
    bool busy = false;
    scm::Ticket<scm::ModuleResult> inner;
  };
  // nullptr when every record is taken; the shim then hands out the
  // inner ticket as is (its wait is attributed to the layer above).
  Pending* claim_pending() noexcept {
    for (Pending& p : pending_) {
      if (!p.busy) {
        p.busy = true;
        return &p;
      }
    }
    return nullptr;
  }

  [[nodiscard]] std::uint64_t sampled_ops() const noexcept { return sampled_; }
  [[nodiscard]] const LayerAcc& layer(Layer l) const noexcept {
    return acc_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  struct Open {
    std::uint64_t start;
    std::uint64_t child_ns;
    Layer layer;
  };

  std::uint64_t period_;
  std::uint64_t ops_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint32_t op_ = 0;
  bool recording_ = false;
  bool active_ = false;
  std::array<Open, 16> stack_{};
  std::size_t depth_ = 0;
  std::array<LayerAcc, kLayerCount> acc_{};
  std::vector<Span> spans_;
  std::array<Pending, 32> pending_{};
};

inline thread_local ThreadTrace* t_trace = nullptr;

// A span of layer l around the enclosing scope, recorded only while the
// thread is inside a sampled operation.
class SpanScope {
 public:
  explicit SpanScope(Layer l) noexcept
      : tr_(t_trace != nullptr && t_trace->active() ? t_trace : nullptr) {
    if (tr_ != nullptr) tr_->open(l);
  }
  ~SpanScope() {
    if (tr_ != nullptr) tr_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadTrace* tr_;
};

// Marks one outermost operation (the driver's call into the stack).
class OpScope {
 public:
  OpScope() noexcept
      : tr_(t_trace), sampled_(tr_ != nullptr && tr_->begin_op()) {}
  // Resumes sampled operation `op`; a no-op when `sampled` is false.
  OpScope(bool sampled, std::uint32_t op) noexcept
      : tr_(t_trace), sampled_(sampled && tr_ != nullptr) {
    if (sampled_) tr_->resume_op(op);
  }
  ~OpScope() {
    if (sampled_) tr_->end_op();
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  [[nodiscard]] bool sampled() const noexcept { return sampled_; }
  [[nodiscard]] std::uint32_t op() const noexcept {
    return sampled_ ? tr_->current_op() : 0;
  }

 private:
  ThreadTrace* tr_;
  bool sampled_;
};

template <class Obj, Layer L>
class Traced : public scm::detail::ShardedConsensusBase<Obj>,
               public scm::detail::ShardedDepthBase<Obj> {
 public:
  using Result = scm::ModuleResult;

  Traced()
    requires std::is_default_constructible_v<Obj>
      : obj_{} {}
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;

  template <class Ctx>
    requires scm::Composable<Obj, Ctx>
  Result invoke(Ctx& ctx, const scm::Request& m,
                std::optional<scm::SwitchValue> init = std::nullopt) {
    const SpanScope span(L);
    return scm::apply(obj_, ctx, m, init);
  }

  template <class Ctx>
    requires scm::BatchInvocable<Obj, Ctx>
  void invoke_batch(Ctx& ctx, std::span<scm::OpSlot> batch) {
    const SpanScope span(L);
    obj_.invoke_batch(ctx, batch);
  }

  template <class Ctx, class... Args>
  auto submit(Ctx& ctx, const scm::Request& m, Args&&... args)
    requires requires(Obj& o) { o.submit(ctx, m, std::forward<Args>(args)...); }
  {
    const SpanScope span(L);
    return rewrap(obj_.submit(ctx, m, std::forward<Args>(args)...));
  }

  // ---- forwarded telemetry and tuning surface.

  [[nodiscard]] std::uint64_t direct_ops() const noexcept
    requires requires(const Obj& o) { o.direct_ops(); }
  {
    return obj_.direct_ops();
  }
  [[nodiscard]] std::uint64_t combined_ops() const noexcept
    requires requires(const Obj& o) { o.combined_ops(); }
  {
    return obj_.combined_ops();
  }
  [[nodiscard]] std::uint64_t combine_rounds() const noexcept
    requires requires(const Obj& o) { o.combine_rounds(); }
  {
    return obj_.combine_rounds();
  }
  [[nodiscard]] scm::ParkStats park_stats() const noexcept
    requires requires(const Obj& o) {
      { o.park_stats() } -> std::same_as<scm::ParkStats>;
    }
  {
    return obj_.park_stats();
  }
  void set_elect_spins(std::uint32_t n) noexcept
    requires requires(Obj& o) { o.set_elect_spins(n); }
  {
    obj_.set_elect_spins(n);
  }
  [[nodiscard]] std::uint32_t elect_spins() const noexcept
    requires requires(const Obj& o) { o.elect_spins(); }
  {
    return obj_.elect_spins();
  }
  void set_yields_before_park(int n) noexcept
    requires requires(Obj& o) { o.set_yields_before_park(n); }
  {
    obj_.set_yields_before_park(n);
  }
  [[nodiscard]] int yields_before_park() const noexcept
    requires requires(const Obj& o) { o.yields_before_park(); }
  {
    return obj_.yields_before_park();
  }

  [[nodiscard]] Obj& object() noexcept { return obj_; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_; }

 private:
  scm::Ticket<Result> rewrap(scm::Ticket<Result> t) {
    ThreadTrace* tr = t_trace;
    if (tr == nullptr || !tr->active()) return t;
    ThreadTrace::Pending* p = tr->claim_pending();
    if (p == nullptr) return t;
    p->inner = std::move(t);
    return scm::Ticket<Result>(&kSource, this, p, nullptr);
  }

  static bool poll_fn(void* /*source*/, void* slot, void* /*ctx*/,
                      Result* out) {
    auto* p = static_cast<ThreadTrace::Pending*>(slot);
    const SpanScope span(L);
    if (!p->inner.poll()) return false;
    *out = p->inner.wait();  // ready: consumes without blocking
    p->busy = false;
    return true;
  }

  static void wait_fn(void* /*source*/, void* slot, void* /*ctx*/,
                      Result* out) {
    auto* p = static_cast<ThreadTrace::Pending*>(slot);
    const SpanScope span(L);
    *out = p->inner.wait();
    p->busy = false;
  }

  static constexpr scm::TicketSource<Result> kSource{&Traced::poll_fn,
                                                     &Traced::wait_fn};

  Obj obj_;
};

// The stack with or without the shim at a boundary.
template <class Obj, Layer L, bool kOn>
using MaybeTraced = std::conditional_t<kOn, Traced<Obj, L>, Obj>;

template <class T>
inline constexpr bool kIsTraced = false;
template <class Obj, Layer L>
inline constexpr bool kIsTraced<Traced<Obj, L>> = true;

// The object behind an optional shim.
template <class T>
decltype(auto) peel(T& x) {
  if constexpr (kIsTraced<std::remove_const_t<T>>) {
    return (x.object());
  } else {
    return (x);
  }
}

// Per-layer traced metrics: self time and crossings per sampled
// operation, and the p99 of a single crossing's self time.
inline void trace_metrics(Report& rep,
                          const std::vector<const ThreadTrace*>& traces) {
  std::uint64_t ops = 0;
  for (const ThreadTrace* t : traces) ops += t->sampled_ops();
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    std::uint64_t calls = 0;
    std::uint64_t self = 0;
    std::vector<std::uint32_t> samples;
    for (const ThreadTrace* t : traces) {
      const auto& acc = t->layer(static_cast<Layer>(l));
      calls += acc.calls;
      self += acc.self_sum;
      samples.insert(samples.end(), acc.self_ns.begin(), acc.self_ns.end());
    }
    if (calls == 0) continue;
    const std::string name = kLayerNames[l];
    const auto n = static_cast<double>(ops);
    rep.metrics[name + ".self_ns_per_op"] = ratio(static_cast<double>(self), n);
    rep.metrics[name + ".calls_per_op"] = ratio(static_cast<double>(calls), n);
    rep.metrics[name + ".self_ns_p99"] = quantile(std::move(samples), 0.99);
  }
}

// One thread's (or process's) spans, for the trace file.
struct TraceTrack {
  int pid = 0;
  int tid = 0;
  std::span<const Span> spans;
};

// Writes Chrome trace-event JSON ("X" complete events, microseconds
// from the earliest span); loadable in chrome://tracing and Perfetto.
inline bool write_chrome_trace(const std::string& path, const Options& opts,
                               const std::vector<TraceTrack>& tracks) {
  std::uint64_t origin = ~std::uint64_t{0};
  for (const TraceTrack& t : tracks) {
    for (const Span& s : t.spans) origin = std::min(origin, s.start_ns);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"%s\","
               "\"seed\":%llu,\"sample_every\":%llu},\"traceEvents\":[",
               opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed),
               static_cast<unsigned long long>(kSampleEvery));
  bool first = true;
  for (const TraceTrack& t : tracks) {
    for (const Span& s : t.spans) {
      const double ts = static_cast<double>(s.start_ns - origin) * 1e-3;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
                   "\"args\":{\"self_ns\":%u,\"op\":%u,\"depth\":%u}}",
                   first ? "" : ",",
                   kLayerNames[static_cast<std::size_t>(s.layer)], ts,
                   static_cast<double>(s.dur_ns) * 1e-3, t.pid, t.tid,
                   s.self_ns, s.op, static_cast<unsigned>(s.depth));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// The span recorders of an in-process run: one per worker when traced,
// none otherwise (every shim then finds t_trace null and records
// nothing).
class TraceSet {
 public:
  explicit TraceSet(bool traced) {
    if (!traced) return;
    for (int t = 0; t < kThreads; ++t) {
      traces_.push_back(std::make_unique<ThreadTrace>());
    }
  }

  // Installs worker tid's recorder on the calling thread.
  void install(int tid) const {
    t_trace = traces_.empty() ? nullptr
                              : traces_[static_cast<std::size_t>(tid)].get();
  }

  // Window open/close on the calling worker.
  static void record(bool on) {
    if (t_trace != nullptr) t_trace->set_recording(on);
  }

  // Per-layer metrics, and the trace file (a failed write is a
  // violation: the traced run promised one).
  void report(Report& rep, const Options& opts) const {
    if (traces_.empty()) return;
    std::vector<const ThreadTrace*> all;
    std::vector<TraceTrack> tracks;
    for (std::size_t t = 0; t < traces_.size(); ++t) {
      all.push_back(traces_[t].get());
      tracks.push_back({1, static_cast<int>(t), traces_[t]->spans()});
    }
    trace_metrics(rep, all);
    rep.check(write_chrome_trace(opts.trace_path, opts, tracks),
              "could not write the trace file");
  }

 private:
  std::vector<std::unique_ptr<ThreadTrace>> traces_;
};

}  // namespace perfbench
