// kv-read-mostly and kv-write-heavy: one keyed stack, two traffic
// mixes that get opposite value from its caching layer.
//
//   Replicated<Sharded<Combining<KeyedStore, 16>, 4, ByKeyHash>, 4, Model>
//
// kv-read-mostly: 98% reads, Zipf 0.99 over 64 keys (the key set fits
// the 64-entry replica table), through invoke(). The caching read path
// — seqlock snapshots, hit/miss handling — dominates. At 99% reads the
// hit rate sits near 47% and the median latency at the boundary
// between the hit and the miss mode, where it moved by 16-26% from run
// to run; at 98% (hit rate about 37%) it sits inside the miss mode.
//
// kv-write-heavy: 50% writes, uniform over 4096 keys (64x the table,
// so reads almost always miss), through submit() with at most 4
// tickets in flight per thread. Invalidation, ByKeyHash routing,
// per-shard combining and the async ticket path carry the load; a
// read-path gain that costs writes shows up here.
//
// Values carry their key ((key << 20) | payload), so every committed
// result is checked against the key it was issued for. Adaptive stays
// out of these stacks: its shard actuator changes the ByKeyHash
// modulus, which would route keys to shards that do not hold them.
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/caching.hpp"
#include "core/combining.hpp"
#include "core/sharding.hpp"
#include "harness.hpp"
#include "runtime/platform.hpp"
#include "support/rng.hpp"
#include "traced.hpp"
#include "workload/keyed.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using scm::ModuleResult;

constexpr std::int64_t kOpWrite = 0;
constexpr std::int64_t kOpRead = 1;
constexpr std::size_t kSlots = 16;
constexpr std::size_t kShards = 4;
constexpr std::size_t kReplicas = 4;
// Tickets a kv-write-heavy thread keeps in flight.
constexpr std::size_t kWindow = 4;
// Per-thread op stream, generated at set-up and replayed cyclically.
constexpr std::size_t kStreamLen = std::size_t{1} << 12;

// A keyed register file. A write stores (key << 20) | payload and
// commits the stored value, so the replication model can refill from
// the response; a read commits the key's current value.
template <std::uint64_t kKeys>
class KeyedStore {
 public:
  static constexpr int kConsensusNumber = scm::kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const scm::Request& m,
                      std::optional<scm::SwitchValue> /*init*/ = std::nullopt) {
    const auto key = static_cast<std::uint64_t>(m.arg) % kKeys;
    if (m.op == kOpWrite) {
      const auto v = static_cast<scm::Response>(
          (key << kPayloadBits) | (m.id & ((1u << kPayloadBits) - 1)));
      cells_[key].write(ctx, v);
      return ModuleResult::commit(v);
    }
    return ModuleResult::commit(cells_[key].read(ctx));
  }

 private:
  std::array<scm::NativeRegister<scm::Response>, kKeys> cells_{};
};

// Reads are servable from a replica, the cache key is the request's
// key, and a committed write's response is the post-write value.
template <std::uint64_t kKeys>
struct StoreModel {
  static bool is_read(const scm::Request& m) { return m.op == kOpRead; }
  static std::uint64_t key(const scm::Request& m) {
    return static_cast<std::uint64_t>(m.arg) % kKeys;
  }
  static std::optional<scm::Response> read_after_write(
      const scm::Request& /*m*/, scm::Response r) {
    return r;
  }
};

struct ReadMostly {
  static constexpr const char* kName = "kv-read-mostly";
  static constexpr std::uint64_t kKeys = 64;
  static constexpr double kTheta = 0.99;
  static constexpr double kWriteFrac = 0.02;
  static constexpr bool kAsync = false;
};

struct WriteHeavy {
  static constexpr const char* kName = "kv-write-heavy";
  static constexpr std::uint64_t kKeys = 4096;
  static constexpr double kTheta = 0.0;  // uniform
  static constexpr double kWriteFrac = 0.5;
  static constexpr bool kAsync = true;
};

template <class Spec, bool kOn>
using Comb = scm::Combining<
    MaybeTraced<KeyedStore<Spec::kKeys>, Layer::kStore, kOn>, kSlots>;
template <class Spec, bool kOn>
using Shards = scm::Sharded<MaybeTraced<Comb<Spec, kOn>, Layer::kCombining, kOn>,
                            kShards, scm::ByKeyHash>;
template <class Spec, bool kOn>
using Stack = MaybeTraced<
    scm::Replicated<MaybeTraced<Shards<Spec, kOn>, Layer::kSharding, kOn>,
                    kReplicas, StoreModel<Spec::kKeys>>,
    Layer::kCaching, kOn>;

struct Op {
  std::uint32_t key = 0;
  bool write = false;
};

template <class Spec>
std::vector<Op> make_stream(std::uint64_t seed, int tid) {
  scm::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(tid) + 1)));
  const scm::workload::ZipfianKeys keys(Spec::kKeys, Spec::kTheta);
  std::vector<Op> ops(kStreamLen);
  for (Op& o : ops) {
    o.key = static_cast<std::uint32_t>(keys(rng));
    o.write = rng.uniform() < Spec::kWriteFrac;
  }
  return ops;
}

scm::Request request(int tid, std::uint64_t seq, const Op& o) {
  return {(static_cast<std::uint64_t>(tid) << 40) | seq, tid,
          o.write ? kOpWrite : kOpRead, static_cast<std::int64_t>(o.key)};
}

// Writes every key once, so no read can see an unwritten register
// (which would decode to key 0). Returns the number of bad results.
template <class S>
std::uint64_t prepopulate(S& stack, std::uint64_t keys) {
  scm::NativeContext ctx(0);
  std::uint64_t bad = 0;
  for (std::uint64_t k = 0; k < keys; ++k) {
    const Op o{static_cast<std::uint32_t>(k), true};
    if (!value_ok(stack.invoke(ctx, request(kThreads, k + 1, o)), k)) ++bad;
  }
  return bad;
}

template <class Spec, bool kOn>
struct Kv {
  struct Snapshot {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t torn = 0;
    std::uint64_t fills = 0;
    std::uint64_t invalidations = 0;
    CombiningSnap comb;
    std::array<std::uint64_t, kShards> shard_ops{};
  };

  // One async submission awaiting completion.
  struct Entry {
    scm::Ticket<ModuleResult> ticket;
    std::uint32_t key = 0;
    std::uint64_t t_submit = 0;  // nonzero: latency-sampled
    std::uint32_t op = 0;        // sampled trace operation
    bool traced = false;
  };

  struct Local {
    Local(Kv& fx, int t)
        : ctx(t), tid(t), stream(&fx.streams[static_cast<std::size_t>(t)]) {
      fx.trace.install(t);
    }
    scm::NativeContext ctx;
    int tid;
    const std::vector<Op>* stream;
    std::uint64_t seq = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t ready_at_submit = 0;
    std::uint64_t window_full = 0;
    std::array<Entry, kWindow> window{};
    std::size_t pending = 0;
  };

  explicit Kv(const Options& o)
      : opts(o), stack(std::make_unique<Stack<Spec, kOn>>()), trace(kOn) {
    for (int t = 0; t < kThreads; ++t) {
      streams.push_back(make_stream<Spec>(o.seed, t));
    }
    prepopulate_failed = prepopulate(*stack, Spec::kKeys);
  }

  auto& cache() { return peel(*stack); }
  Shards<Spec, kOn>& shards() { return peel(cache().object()); }

  void op(Local& l, std::uint64_t i, ThreadRecord& rec, bool measure) {
    const Op& o = (*l.stream)[i & (kStreamLen - 1)];
    const scm::Request m = request(l.tid, ++l.seq, o);
    if (measure) ++(o.write ? l.writes : l.reads);
    const bool sample = measure && i % kSampleEvery == 0;
    if constexpr (Spec::kAsync) {
      submit(l, m, o.key, sample, rec, measure);
    } else {
      ModuleResult r;
      if (sample) {
        const std::uint64_t t0 = now_ns();
        r = invoke(l, m);
        rec.lat_ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
      } else {
        r = invoke(l, m);
      }
      if (!value_ok(r, o.key)) ++rec.failed;
    }
  }

  ModuleResult invoke(Local& l, const scm::Request& m) {
    if constexpr (kOn) {
      const OpScope op;
      return stack->invoke(l.ctx, m);
    } else {
      return stack->invoke(l.ctx, m);
    }
  }

  // Closed loop with a window: a full window first waits out its
  // oldest ticket; every submission is polled at once (ready at
  // submit: a read hit or an uncontended write) and then every older
  // ticket is polled, so completions are observed one op apart.
  void submit(Local& l, const scm::Request& m, std::uint32_t key, bool sample,
              ThreadRecord& rec, bool measure) {
    if (l.pending == kWindow) {
      if (measure) ++l.window_full;
      complete(l, 0, rec);
    }
    Entry& e = l.window[l.pending++];
    e.key = key;
    e.t_submit = sample ? now_ns() : 0;
    if constexpr (kOn) {
      const OpScope op;
      e.traced = op.sampled();
      e.op = op.op();
      e.ticket = stack->submit(l.ctx, m);
    } else {
      e.ticket = stack->submit(l.ctx, m);
    }
    if (poll(e)) {
      if (measure) ++l.ready_at_submit;
      complete(l, l.pending - 1, rec);
    }
    for (std::size_t k = 0; k < l.pending;) {
      if (poll(l.window[k])) {
        complete(l, k, rec);
      } else {
        ++k;
      }
    }
  }

  bool poll(Entry& e) {
    if constexpr (kOn) {
      const OpScope op(e.traced, e.op);
      return e.ticket.poll();
    } else {
      return e.ticket.poll();
    }
  }

  // Consumes window entry k (waiting if it is still pending), checks
  // its value, and closes the gap.
  void complete(Local& l, std::size_t k, ThreadRecord& rec) {
    Entry& e = l.window[k];
    ModuleResult r;
    if constexpr (kOn) {
      const OpScope op(e.traced, e.op);
      r = e.ticket.wait();
    } else {
      r = e.ticket.wait();
    }
    if (e.t_submit != 0) {
      rec.lat_ns.push_back(static_cast<std::uint32_t>(now_ns() - e.t_submit));
    }
    if (!value_ok(r, e.key)) ++rec.failed;
    for (std::size_t j = k + 1; j < l.pending; ++j) {
      l.window[j - 1] = std::move(l.window[j]);
    }
    --l.pending;
  }

  void quiesce(Local& l, ThreadRecord& rec) {
    while (l.pending != 0) complete(l, 0, rec);
  }

  void begin_window(Local& l, bool on) {
    TraceSet::record(on);
    if (on) {
      l.reads = l.writes = l.ready_at_submit = l.window_full = 0;
      return;
    }
    reads.fetch_add(l.reads, std::memory_order_relaxed);
    writes.fetch_add(l.writes, std::memory_order_relaxed);
    ready_at_submit.fetch_add(l.ready_at_submit, std::memory_order_relaxed);
    window_full.fetch_add(l.window_full, std::memory_order_relaxed);
  }

  Snapshot snapshot() {
    auto& c = cache();
    Snapshot s{c.hits(),         c.misses(), c.torn_retries(), c.fills(),
               c.invalidations(), snap_combining(shards()), {}};
    for (std::size_t k = 0; k < kShards; ++k) {
      const auto& comb = shards().shard(k);
      s.shard_ops[k] = comb.direct_ops() + comb.combined_ops();
    }
    return s;
  }

  void finish(const Snapshot& a, const Snapshot& b,
              const std::vector<ThreadRecord>& /*recs*/, Report& rep) {
    const std::uint64_t n_reads = reads.load(std::memory_order_relaxed);
    const std::uint64_t n_writes = writes.load(std::memory_order_relaxed);
    const auto n = static_cast<double>(n_reads + n_writes);
    const std::uint64_t hits = b.hits - a.hits;
    const std::uint64_t lookups = hits + (b.misses - a.misses);
    check_cache_window(rep, n_writes, n_reads,
                       b.invalidations - a.invalidations, lookups);
    if (prepopulate_failed != 0) {
      rep.violation("pre-population returned bad values", prepopulate_failed);
    }
    std::size_t occupied = 0;
    for (std::size_t k = 0; k < kShards; ++k) {
      occupied += peel(shards().shard(k)).occupied();
    }
    check_residue(rep, occupied);

    rep.metrics["caching.hit_rate"] =
        ratio(static_cast<double>(hits), static_cast<double>(lookups));
    rep.metrics["caching.torn_retries_per_mop"] =
        ratio(static_cast<double>(b.torn - a.torn) * 1e6, n);
    rep.metrics["caching.fills_per_op"] =
        ratio(static_cast<double>(b.fills - a.fills), n);
    rep.metrics["caching.invalidations_per_write"] =
        ratio(static_cast<double>(b.invalidations - a.invalidations),
              static_cast<double>(n_writes));

    double load_max = 0.0;
    double load_sum = 0.0;
    for (std::size_t k = 0; k < kShards; ++k) {
      const auto load = static_cast<double>(b.shard_ops[k] - a.shard_ops[k]);
      load_max = std::max(load_max, load);
      load_sum += load;
    }
    rep.metrics["sharding.load_max_over_mean"] =
        ratio(load_max * static_cast<double>(kShards), load_sum);
    rep.metrics["sharding.active_shards"] =
        static_cast<double>(shards().active_shards());
    combining_metrics(rep, a.comb, b.comb, n, occupied);

    rep.layers = {"runtime", "combining", "parking",
                  "caching", "sharding",  "workload"};
    if constexpr (Spec::kAsync) {
      const auto submits = n;
      rep.metrics["async.ready_at_submit_share"] = ratio(
          static_cast<double>(ready_at_submit.load(std::memory_order_relaxed)),
          submits);
      rep.metrics["async.window_full_share"] = ratio(
          static_cast<double>(window_full.load(std::memory_order_relaxed)),
          submits);
      rep.layers.emplace_back("async");
    }
    trace.report(rep, opts);
  }

  const Options& opts;
  std::unique_ptr<Stack<Spec, kOn>> stack;
  TraceSet trace;
  std::vector<std::vector<Op>> streams;
  std::uint64_t prepopulate_failed = 0;
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> ready_at_submit{0};
  std::atomic<std::uint64_t> window_full{0};
};

template <class Spec>
void run(const Options& opts, Report& rep) {
  if (opts.traced()) {
    ClosedLoop<Kv<Spec, true>>(opts).run(rep);
  } else {
    ClosedLoop<Kv<Spec, false>>(opts).run(rep);
  }
}

// Solo equivalence for one spec: the same op sequence through the bare
// and the fully traced stack, on the path the workload uses.
template <class Spec>
void probe(std::vector<std::string>& errs) {
  auto bare = std::make_unique<Stack<Spec, false>>();
  auto traced = std::make_unique<Stack<Spec, true>>();
  if (prepopulate(*bare, Spec::kKeys) != 0 ||
      prepopulate(*traced, Spec::kKeys) != 0) {
    errs.push_back(std::string(Spec::kName) + ": pre-population failed");
    return;
  }
  ThreadTrace tr(2);
  tr.set_recording(true);
  t_trace = &tr;
  scm::NativeContext c1(0);
  scm::NativeContext c2(0);
  const std::vector<Op> ops = make_stream<Spec>(7, 0);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const scm::Request m = request(0, i + 1, ops[i]);
    ModuleResult want;
    ModuleResult got;
    if (Spec::kAsync && i % 2 == 0) {
      want = bare->submit(c1, m).wait();
      const OpScope op;
      got = traced->submit(c2, m).wait();
    } else {
      want = bare->invoke(c1, m);
      const OpScope op;
      got = traced->invoke(c2, m);
    }
    if (got.outcome != want.outcome || got.response != want.response) {
      errs.push_back(std::string(Spec::kName) +
                     ": traced result differs at op " + std::to_string(i));
      break;
    }
  }
  t_trace = nullptr;
  if (!(c1.counters() == c2.counters())) {
    errs.push_back(std::string(Spec::kName) + ": traced step counts differ");
  }
  if (peel(*traced).hits() != peel(*bare).hits()) {
    errs.push_back(std::string(Spec::kName) + ": traced cache hits differ");
  }
  // Where the key set fits the replica table the probe must have
  // exercised the hit path, or the equivalence it certifies is vacuous.
  if (Spec::kKeys <= 64 && peel(*bare).hits() == 0) {
    errs.push_back(std::string(Spec::kName) + ": the hit path never ran");
  }
  for (Layer l :
       {Layer::kCaching, Layer::kSharding, Layer::kCombining, Layer::kStore}) {
    if (tr.layer(l).calls == 0) {
      errs.push_back(std::string(Spec::kName) + ": no " +
                     kLayerNames[static_cast<std::size_t>(l)] +
                     " span recorded");
    }
  }
}

}  // namespace

void run_kv_read_mostly(const Options& opts, Report& rep) {
  run<ReadMostly>(opts, rep);
}

void run_kv_write_heavy(const Options& opts, Report& rep) {
  run<WriteHeavy>(opts, rep);
}

std::vector<std::string> kv_probes() {
  std::vector<std::string> errs;
  probe<ReadMostly>(errs);
  probe<WriteHeavy>(errs);
  return errs;
}

}  // namespace perfbench
