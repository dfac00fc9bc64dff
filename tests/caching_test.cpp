// Tests for the read-mostly replication layer (core/caching.hpp) and
// the unified Composable surface (core/module.hpp):
//
//  * Composable concept + scm::apply(): module-shaped and chain-shaped
//    objects both dispatch through the one entry point;
//  * ReadOnlyOps classification;
//  * a solo caller's cached results are bit-identical to the bare
//    object's, hit path included;
//  * invalidation: a post-write read misses, refetches, and refills at
//    the current generation;
//  * a read that carries a switch value goes to the object and leaves
//    the cache alone: no invalidation, no fill;
//  * ticket-consuming invalidation: submit()'s completion callbacks
//    refill/invalidate by the time the ticket is collected;
//  * concurrent mixed read/fetch_inc histories through the cache
//    linearize against CounterSpec;
//  * invalidation storms: every write bumps the generation exactly
//    once under contention, per-thread read streams stay monotone, and
//    no read ever returns a value the counter never held;
//  * the slot line: a write's install serves the new value to every
//    replica, without another call into the wrapped object;
//  * per-slot invalidation: a write evicts only its key's slot, keys
//    in other slots keep hitting on every replica, and per-key
//    histories over a sharded stack (slot-mates on different shards)
//    linearize against RegisterSpec, and slot-mate writers racing on
//    one slot line never serve each other's values;
//  * placement: a dense key range stays resident;
//  * the reuse gate: a thread whose reads never hit enters bypass and
//    stops filling but for its samples, leaves bypass once its keys
//    come back, and a thread whose reads hit often enough never enters
//    it; a torn snapshot of the slot line is counted as a torn miss;
//  * the read_at probe does not count torn reads;
//  * telemetry stays exact when threads share a replica;
//  * every async write in flight installs, however many there are;
//  * destroying the cache with a ticket outstanding dies on the wrapped
//    Combining's occupied-slot check;
//  * async fills and installs run by other threads' combiners keep
//    every replica coherent, and a quiesced cache destroys cleanly.
//
// Runs under the "tsan" ctest label: the CI sanitizer job executes
// this suite under ThreadSanitizer (the seqlock snapshot protocol is
// the label's customer here).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/caching.hpp"
#include "core/combining.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "core/sharding.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/context.hpp"
#include "runtime/platform.hpp"
#include "runtime/registers.hpp"
#include "workload/driver.hpp"

namespace scm {
namespace {

// A shared counter with CounterSpec's interface: op kFetchInc commits
// the OLD value, op kRead commits the current value.
struct CounterModule {
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    if (m.op == CounterSpec::kRead) {
      return ModuleResult::commit(static_cast<Response>(count_.read(ctx)));
    }
    return ModuleResult::commit(static_cast<Response>(count_.fetch_add(ctx)));
  }

  [[nodiscard]] std::uint64_t peek() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

// The cache's view of CounterSpec: kRead is read-only, there is one
// key, and a committed fetch_inc's response (the old value) determines
// the post-write value exactly: old + 1.
struct CounterModel {
  static bool is_read(const Request& m) { return m.op == CounterSpec::kRead; }
  static std::uint64_t key(const Request& /*m*/) { return 0; }
  static std::optional<Response> read_after_write(const Request& /*m*/,
                                                  Response r) {
    return r + 1;
  }
};

// Same classification, but the write's effect is declared underivable:
// the cache must invalidate without refilling — the shape the
// invalidation test needs (a stale entry stays stale).
struct NoRefillModel {
  static bool is_read(const Request& m) { return m.op == CounterSpec::kRead; }
  static std::uint64_t key(const Request& /*m*/) { return 0; }
  static std::optional<Response> read_after_write(const Request& /*m*/,
                                                  Response /*r*/) {
    return std::nullopt;
  }
};

Request read_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kRead, 0};
}
Request inc_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kFetchInc, 0};
}

using CachedCounter = Cached<Combining<CounterModule, 8>, CounterModel>;

// Parks the calling thread inside KeyedRegisters for kGateOp requests
// until the gate opens — keeps the combiner lock held while a test
// publishes behind it. Each user resets the flags.
std::atomic<bool> g_gate_entered{false};
std::atomic<bool> g_gate_open{true};

// A keyed register file with RegisterSpec's op codes. The request's
// arg is the key, so ByKeyHash routes every operation on one key to
// the same shard; a write stores its request id (unique, never 0) and
// commits the stored value, so the model can refill from the response.
struct KeyedRegisters {
  static constexpr std::size_t kKeys = 256;
  static constexpr std::int64_t kGateOp = 2;
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    if (m.op == kGateOp) {
      g_gate_entered.store(true, std::memory_order_release);
      while (!g_gate_open.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      return ModuleResult::commit(0);
    }
    auto& cell = cells_[static_cast<std::size_t>(m.arg) % kKeys];
    if (m.op == RegisterSpec::kWrite) {
      const auto v = static_cast<Response>(m.id);
      cell.write(ctx, v);
      return ModuleResult::commit(v);
    }
    return ModuleResult::commit(cell.read(ctx));
  }

 private:
  std::array<NativeRegister<Response>, kKeys> cells_{};
};

struct KeyedModel {
  static bool is_read(const Request& m) { return m.op == RegisterSpec::kRead; }
  static std::uint64_t key(const Request& m) {
    return static_cast<std::uint64_t>(m.arg);
  }
  static std::optional<Response> read_after_write(const Request& /*m*/,
                                                  Response r) {
    return r;
  }
};

Request key_read(std::uint64_t id, ProcessId p, std::uint64_t key) {
  return Request{id, p, RegisterSpec::kRead, static_cast<std::int64_t>(key)};
}
Request key_write(std::uint64_t id, ProcessId p, std::uint64_t key) {
  return Request{id, p, RegisterSpec::kWrite, static_cast<std::int64_t>(key)};
}

// The first key after `after` whose slot is (or is not) `slot`.
template <class Cache>
std::uint64_t key_in_slot(std::size_t slot, bool same,
                          std::uint64_t after = 0) {
  for (std::uint64_t k = after + 1; k < KeyedRegisters::kKeys; ++k) {
    if ((Cache::slot_of(k) == slot) == same) return k;
  }
  ADD_FAILURE() << "no key below " << KeyedRegisters::kKeys
                << (same ? " in" : " outside") << " slot " << slot;
  return 0;
}

// ---------------------------------------------------------------------------
// The unified Composable surface

static_assert(Composable<CounterModule, NativeContext>);
static_assert(Composable<Combining<CounterModule, 8>, NativeContext>);
static_assert(Composable<CachedCounter, NativeContext>);

TEST(ComposableSurface, ApplyForwardsToInvoke) {
  CounterModule counter;
  NativeContext ctx(0);
  EXPECT_EQ(scm::apply(counter, ctx, inc_req(1, 0)).response, 0);
  EXPECT_EQ(scm::apply(counter, ctx, read_req(2, 0)).response, 1);
}

TEST(ComposableSurface, ReadOnlyOpsClassifies) {
  using Reads = ReadOnlyOps<CounterSpec::kRead>;
  static_assert(ReadOnlyClassifier<Reads>);
  EXPECT_TRUE(Reads::is_read_only(CounterSpec::kRead));
  EXPECT_FALSE(Reads::is_read_only(CounterSpec::kFetchInc));
  EXPECT_TRUE(Reads::is_read_only(read_req(1, 0)));
  EXPECT_FALSE(Reads::is_read_only(inc_req(1, 0)));

  using Multi = ReadOnlyOps<3, 5>;
  EXPECT_TRUE(Multi::is_read_only(3));
  EXPECT_TRUE(Multi::is_read_only(5));
  EXPECT_FALSE(Multi::is_read_only(4));
}

// ---------------------------------------------------------------------------
// Solo equivalence: cached == bare, bit for bit, hit path included

TEST(Cached, SoloResultsMatchBareObjectIncludingHits) {
  CachedCounter cached;
  CounterModule bare;
  NativeContext ctx(0);

  for (std::uint64_t i = 0; i < 256; ++i) {
    // 3 reads per inc: the rereads are served from the table.
    const bool is_read = i % 4 != 0;
    const Request m = is_read ? read_req(i + 1, 0) : inc_req(i + 1, 0);
    const ModuleResult want = bare.invoke(ctx, m);
    const ModuleResult got = cached.invoke(ctx, m);
    ASSERT_EQ(got.outcome, want.outcome) << "op " << i;
    ASSERT_EQ(got.response, want.response) << "op " << i;
  }
  // The equivalence must have exercised the hit path to mean anything.
  EXPECT_GT(cached.hits(), 0u);
  // Every fetch_inc bumped the generation exactly once.
  EXPECT_EQ(cached.invalidations(), 64u);
}

// ---------------------------------------------------------------------------
// Invalidation semantics

TEST(Cached, InvalidatedEntryMissesThenRefillsAtCurrentGeneration) {
  Cached<Combining<CounterModule, 8>, NoRefillModel> cached;
  NativeContext ctx(0);

  // Fill: the first read misses and installs 0 at generation 0.
  EXPECT_EQ(cached.invoke(ctx, read_req(1, 0)).response, 0);
  EXPECT_EQ(cached.fills(), 1u);
  // A write invalidates without refilling (NoRefillModel).
  EXPECT_EQ(cached.invoke(ctx, inc_req(2, 0)).response, 0);
  EXPECT_EQ(cached.invalidations(), 1u);

  // The entry is one generation behind its slot, so it misses; the
  // read goes through the object and returns the current value, never
  // the stale 0.
  const std::uint64_t misses_before = cached.misses();
  EXPECT_EQ(cached.invoke(ctx, read_req(3, 0)).response, 1);
  EXPECT_EQ(cached.misses(), misses_before + 1);
  EXPECT_EQ(cached.fills(), 2u);
  // ... and the miss refilled at the current generation, so the next
  // read hits fresh.
  const std::uint64_t hits_before = cached.hits();
  EXPECT_EQ(cached.invoke(ctx, read_req(4, 0)).response, 1);
  EXPECT_EQ(cached.hits(), hits_before + 1);
}

// A read that carries a switch value is not served from the cache. It
// must not count as a write either: it neither bumps the generation
// nor installs read_after_write of its response.
TEST(Cached, ReadWithSwitchValueNeitherInvalidatesNorFills) {
  CachedCounter cached;
  NativeContext ctx(0);

  EXPECT_EQ(cached.invoke(ctx, inc_req(1, 0)).response, 0);
  EXPECT_EQ(cached.invoke(ctx, read_req(2, 0), SwitchValue{0}).response, 1);
  EXPECT_EQ(cached.submit(ctx, read_req(3, 0), SwitchValue{0}).wait().response,
            1);
  EXPECT_EQ(cached.invalidations(), 1u);
  // The counter holds 1; a plain read must say so, hit or miss.
  EXPECT_EQ(cached.invoke(ctx, read_req(4, 0)).response, 1);
  EXPECT_EQ(cached.invoke(ctx, read_req(5, 0)).response, 1);
  EXPECT_EQ(cached.object().object().peek(), 1u);
}

// ---------------------------------------------------------------------------
// Ticket-consuming invalidation (the async surface)

TEST(Cached, TicketCompletionRefillsAndInvalidates) {
  CachedCounter cached;
  NativeContext ctx(0);

  // A miss's fill arrives through the ticket: by the time wait()
  // returns, the callback has installed the entry.
  auto t0 = cached.submit(ctx, read_req(1, 0));
  EXPECT_EQ(t0.wait().response, 0);
  EXPECT_EQ(cached.fills(), 1u);
  ASSERT_TRUE(cached.read_at(0, 0).has_value());
  EXPECT_EQ(*cached.read_at(0, 0), 0);

  // A write's completion bumps the generation and refills with the
  // model-derived post-write value (old + 1).
  auto t1 = cached.submit(ctx, inc_req(2, 0));
  EXPECT_EQ(t1.wait().response, 0);
  EXPECT_EQ(cached.invalidations(), 1u);
  ASSERT_TRUE(cached.read_at(0, 0).has_value());
  EXPECT_EQ(*cached.read_at(0, 0), 1);

  // The refill makes the next read a hit — and a ready ticket (a hit
  // costs no shared write; there is nothing to wait for).
  const std::uint64_t hits_before = cached.hits();
  auto t2 = cached.submit(ctx, read_req(3, 0));
  EXPECT_TRUE(t2.poll());
  EXPECT_EQ(t2.wait().response, 1);
  EXPECT_EQ(cached.hits(), hits_before + 1);
}

// ---------------------------------------------------------------------------
// Concurrent histories linearize

TEST(Cached, ConcurrentMixedHistoriesLinearizeAgainstCounterSpec) {
  // 3 threads x 5 ops, reads and fetch_incs interleaved, timestamps
  // from a global atomic clock. Every response — cache hits included —
  // must admit a linearization against CounterSpec. Trace sizes stay
  // small: the checker is exponential in overlap.
  constexpr int kThreads = 3;
  constexpr std::uint64_t kOps = 5;

  for (int round = 0; round < 10; ++round) {
    Replicated<Combining<CounterModule, 8>, 2, CounterModel> cached;
    std::atomic<std::uint64_t> clock{0};
    struct Recorded {
      Response response = 0;
      std::uint64_t invoke = 0;
      std::uint64_t ret = 0;
      std::int64_t op = 0;
    };
    std::array<std::array<Recorded, kOps>, kThreads> rec{};

    (void)workload::run_threads(
        kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
          const auto tid = static_cast<std::size_t>(ctx.id());
          // Threads 1+ read mostly; thread 0 writes mostly — mixed
          // enough that hits, misses, and invalidations all occur.
          const bool is_read = tid == 0 ? (i % 2 == 1) : (i % 4 != 3);
          const Request m =
              is_read ? read_req((static_cast<std::uint64_t>(tid) << 40) |
                                     (i + 1),
                                 ctx.id())
                      : inc_req((static_cast<std::uint64_t>(tid) << 40) |
                                    (i + 1),
                                ctx.id());
          Recorded& r = rec[tid][i];
          r.op = m.op;
          r.invoke = clock.fetch_add(1, std::memory_order_acq_rel);
          r.response = cached.invoke(ctx, m).response;
          r.ret = clock.fetch_add(1, std::memory_order_acq_rel);
        });

    std::vector<ConcurrentOp> ops;
    for (int t = 0; t < kThreads; ++t) {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const auto& r =
            rec[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        ConcurrentOp op;
        op.pid = static_cast<ProcessId>(t);
        op.request = Request{(static_cast<std::uint64_t>(t) << 40) | (i + 1),
                             static_cast<ProcessId>(t), r.op, 0};
        op.response = r.response;
        op.invoke = r.invoke;
        op.ret = r.ret;
        op.completed = true;
        ops.push_back(op);
      }
    }
    ASSERT_TRUE(linearizable<CounterSpec>(std::move(ops)))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Invalidation storm

TEST(Replicated, InvalidationStormKeepsGenerationExactAndReadsMonotone) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 512;

  Replicated<Combining<CounterModule, 8>, 2, CounterModel> cached;
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> monotonicity_violations{0};
  std::atomic<std::uint64_t> overshoots{0};

  (void)workload::run_threads(
      kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
        static thread_local Response last_read = -1;
        if (i == 0) last_read = -1;  // fresh per run
        const std::uint64_t id =
            (static_cast<std::uint64_t>(ctx.id()) << 40) | (i + 1);
        if (i % 2 == 0) {
          (void)cached.invoke(ctx, inc_req(id, ctx.id()));
          writes.fetch_add(1, std::memory_order_relaxed);
        } else {
          const Response r =
              cached.invoke(ctx, read_req(id, ctx.id())).response;
          // The counter never decreases: each thread's read stream
          // must be monotone even when served from replicas.
          if (r < last_read) {
            monotonicity_violations.fetch_add(1, std::memory_order_relaxed);
          }
          // A read can never exceed the number of writes ever issued.
          if (r > static_cast<Response>(kThreads * kOps)) {
            overshoots.fetch_add(1, std::memory_order_relaxed);
          }
          last_read = r;
        }
      });

  EXPECT_EQ(monotonicity_violations.load(), 0u);
  EXPECT_EQ(overshoots.load(), 0u);
  // Every write bumped the generation exactly once, even under storm.
  EXPECT_EQ(cached.invalidations(), writes.load());
  EXPECT_EQ(cached.object().object().peek(), writes.load());
  // A post-quiescence read agrees with the ground truth.
  NativeContext ctx(0);
  EXPECT_EQ(cached.invoke(ctx, read_req(1u << 20, 0)).response,
            static_cast<Response>(writes.load()));
}

// ---------------------------------------------------------------------------
// Replica isolation

TEST(Replicated, WritesInvalidateEveryReplica) {
  Replicated<Combining<CounterModule, 8>, 4, CounterModel> cached;

  // Fill each replica's entry from a differently-bound context.
  for (ProcessId p = 0; p < 4; ++p) {
    NativeContext ctx(p);
    (void)cached.invoke(ctx, read_req(static_cast<std::uint64_t>(p) + 1, p));
  }
  for (std::size_t rep = 0; rep < 4; ++rep) {
    ASSERT_TRUE(cached.read_at(rep, 0).has_value()) << "replica " << rep;
    EXPECT_EQ(*cached.read_at(rep, 0), 0);
  }

  // One write: every replica's entry must stop serving the old value —
  // either invisible (stale generation) or refreshed to the new one.
  NativeContext writer(1);
  EXPECT_EQ(cached.invoke(writer, inc_req(100, 1)).response, 0);
  for (std::size_t rep = 0; rep < 4; ++rep) {
    const auto v = cached.read_at(rep, 0);
    if (v.has_value()) {
      EXPECT_EQ(*v, 1) << "replica " << rep;
    }
  }
  // The completion callback installed the new value on the slot line.
  ASSERT_TRUE(cached.read_at(1, 0).has_value());
  EXPECT_EQ(*cached.read_at(1, 0), 1);
}

// After a write, the next read on every replica is a hit with the new
// value: the write's install on the slot line serves them all, so none
// of them calls into the wrapped object.
TEST(Replicated, WriteRefreshesEveryReplicaWithoutACombinerCall) {
  constexpr std::size_t kReps = 4;
  Replicated<Combining<CounterModule, 8>, kReps, CounterModel> cached;
  std::uint64_t id = 1;
  for (ProcessId p = 0; p < static_cast<ProcessId>(kReps); ++p) {
    NativeContext ctx(p);
    EXPECT_EQ(cached.invoke(ctx, read_req(id++, p)).response, 0);
  }

  NativeContext writer(2);
  EXPECT_EQ(cached.invoke(writer, inc_req(id++, 2)).response, 0);
  const auto& comb = cached.object();
  const std::uint64_t calls = comb.direct_ops() + comb.combined_ops();
  // The first pass hits the slot line, the second the refilled replica.
  for (int pass = 0; pass < 2; ++pass) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(kReps); ++p) {
      NativeContext ctx(p);
      const std::uint64_t hits_before = cached.hits();
      EXPECT_EQ(cached.invoke(ctx, read_req(id++, p)).response, 1)
          << "replica " << p << " pass " << pass;
      EXPECT_EQ(cached.hits(), hits_before + 1)
          << "replica " << p << " pass " << pass;
    }
  }
  EXPECT_EQ(comb.direct_ops() + comb.combined_ops(), calls);
  EXPECT_EQ(cached.invalidations(), 1u);
}

// ---------------------------------------------------------------------------
// Per-slot invalidation

TEST(Replicated, WriteLeavesOtherSlotsHitting) {
  constexpr std::size_t kReps = 4;
  using Cache = Replicated<Combining<KeyedRegisters, 8>, kReps, KeyedModel>;
  Cache cached;
  const std::uint64_t a = 1;
  const std::uint64_t b = key_in_slot<Cache>(Cache::slot_of(a), false);
  const std::uint64_t mate = key_in_slot<Cache>(Cache::slot_of(a), true, a);

  NativeContext writer(0);
  std::uint64_t id = 100;
  const Response a_old = cached.invoke(writer, key_write(id++, 0, a)).response;
  const Response b_val = cached.invoke(writer, key_write(id++, 0, b)).response;
  const Response mate_val =
      cached.invoke(writer, key_write(id++, 0, mate)).response;

  // Fill a and b on every replica, then the slot-mate on the last one
  // (evicting a there: the table is direct-mapped).
  for (ProcessId p = 0; p < static_cast<ProcessId>(kReps); ++p) {
    NativeContext ctx(p);
    EXPECT_EQ(cached.invoke(ctx, key_read(id++, p, a)).response, a_old);
    EXPECT_EQ(cached.invoke(ctx, key_read(id++, p, b)).response, b_val);
  }
  constexpr auto kLast = static_cast<ProcessId>(kReps - 1);
  NativeContext last(kLast);
  EXPECT_EQ(cached.invoke(last, key_read(id++, kLast, mate)).response,
            mate_val);

  const Response a_new = cached.invoke(writer, key_write(id++, 0, a)).response;
  ASSERT_NE(a_new, a_old);
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    // The write's slot no longer serves a's pre-write value anywhere...
    const auto va = cached.read_at(rep, a);
    if (va.has_value()) {
      EXPECT_EQ(*va, a_new) << "replica " << rep;
    }
    // ...while the other slot is untouched on every replica.
    const auto vb = cached.read_at(rep, b);
    ASSERT_TRUE(vb.has_value()) << "replica " << rep;
    EXPECT_EQ(*vb, b_val) << "replica " << rep;
  }
  // The write's install on the slot line serves every replica.
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    ASSERT_TRUE(cached.read_at(rep, a).has_value()) << "replica " << rep;
    EXPECT_EQ(*cached.read_at(rep, a), a_new) << "replica " << rep;
  }
  // The slot-mate shares a's generation, so it may miss — but whatever
  // it serves is its own, unchanged value.
  const auto vm = cached.read_at(kReps - 1, mate);
  if (vm.has_value()) {
    EXPECT_EQ(*vm, mate_val);
  }
  EXPECT_EQ(cached.invoke(last, key_read(id++, kLast, mate)).response,
            mate_val);

  // The next read of b hits on every replica.
  for (ProcessId p = 0; p < static_cast<ProcessId>(kReps); ++p) {
    NativeContext ctx(p);
    const std::uint64_t hits_before = cached.hits();
    EXPECT_EQ(cached.invoke(ctx, key_read(id++, p, b)).response, b_val);
    EXPECT_EQ(cached.hits(), hits_before + 1) << "replica " << p;
  }
  EXPECT_EQ(cached.invalidations(), 4u);
}

TEST(Replicated, SlotMatesOnDifferentShardsLinearizePerKey) {
  // The benchmark's stack shape with 3 shards: keys 1 and 64 share an
  // entry slot — and so a generation — but are serialized by different
  // shard locks, so their callbacks race on that generation and on the
  // entry's seqlock.
  using Shards = Sharded<Combining<KeyedRegisters, 8>, 3, ByKeyHash>;
  using Cache = Replicated<Shards, 2, KeyedModel>;
  static_assert(Cache::slot_of(1) == Cache::slot_of(64));
  static_assert(ByKeyHash::mix(1) % 3 != ByKeyHash::mix(64) % 3);
  constexpr std::array<std::uint64_t, 3> kKeysUsed{1, 64, 5};
  constexpr int kThreads = 3;
  constexpr std::uint64_t kOps = 12;

  std::uint64_t hits = 0;
  for (std::uint64_t round = 0; round < 40; ++round) {
    Cache cached;
    std::atomic<std::uint64_t> clock{0};
    struct Recorded {
      std::uint64_t key = 0;
      std::uint64_t id = 0;
      std::int64_t op = 0;
      Response response = 0;
      std::uint64_t invoke = 0;
      std::uint64_t ret = 0;
    };
    std::array<std::array<Recorded, kOps>, kThreads> rec{};

    (void)workload::run_threads(
        kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
          const auto tid = static_cast<std::size_t>(ctx.id());
          Recorded& r = rec[tid][i];
          // A fixed pseudo-random key and op per (round, thread, op):
          // about one write in three, spread over every key.
          const std::uint64_t h =
              ByKeyHash::mix((round << 16) | (tid << 8) | i);
          r.key = kKeysUsed[h % kKeysUsed.size()];
          r.id = (static_cast<std::uint64_t>(tid) << 40) | (i + 1);
          const bool is_write = (h >> 8) % 3 == 0;
          const Request m = is_write ? key_write(r.id, ctx.id(), r.key)
                                     : key_read(r.id, ctx.id(), r.key);
          r.op = m.op;
          r.invoke = clock.fetch_add(1, std::memory_order_acq_rel);
          r.response = cached.invoke(ctx, m).response;
          r.ret = clock.fetch_add(1, std::memory_order_acq_rel);
        });
    hits += cached.hits();

    // Linearizability is local: checking every key's sub-history
    // against RegisterSpec checks the whole history.
    for (const std::uint64_t key : kKeysUsed) {
      std::vector<ConcurrentOp> ops;
      for (int t = 0; t < kThreads; ++t) {
        for (const Recorded& r : rec[static_cast<std::size_t>(t)]) {
          if (r.key != key) continue;
          ConcurrentOp op;
          op.pid = static_cast<ProcessId>(t);
          if (r.op == RegisterSpec::kWrite) {
            // The store writes the request id and commits it.
            ASSERT_EQ(r.response, static_cast<Response>(r.id));
            op.request = Request{r.id, op.pid, RegisterSpec::kWrite,
                                 static_cast<std::int64_t>(r.id)};
            op.response = RegisterSpec::kAck;
          } else {
            op.request = Request{r.id, op.pid, RegisterSpec::kRead, 0};
            op.response = r.response;
          }
          op.invoke = r.invoke;
          op.ret = r.ret;
          op.completed = true;
          ops.push_back(op);
        }
      }
      ASSERT_TRUE(linearizable<RegisterSpec>(std::move(ops)))
          << "round " << round << " key " << key;
    }
  }
  // Hits must have occurred, or the check says nothing about them.
  EXPECT_GT(hits, 0u);
}

// Two writers hammer slot-mates that live on different shards, so their
// completion callbacks install into the one slot line concurrently,
// while two readers read both keys. The slot line's seqlock must keep
// every served value whole: a value always belongs to the key it was
// read for, hit or miss.
TEST(Replicated, SlotMateWritersNeverServeEachOthersValues) {
  using Shards = Sharded<Combining<KeyedRegisters, 8>, 3, ByKeyHash>;
  using Cache = Replicated<Shards, 2, KeyedModel>;
  constexpr std::array<std::uint64_t, 2> kMates{1, 64};
  static_assert(Cache::slot_of(kMates[0]) == Cache::slot_of(kMates[1]));
  static_assert(ByKeyHash::mix(kMates[0]) % 3 != ByKeyHash::mix(kMates[1]) % 3);
  // Torn installs are rare: against an install without the seqlock's
  // CAS, 200 ms runs missed 1-2 in 10 and 400 ms runs caught 20 of 20.
  constexpr auto kRun = std::chrono::milliseconds(400);
  // A write stores its request id, whose low byte is the key.
  const auto decodes = [](Response v, std::uint64_t key) {
    return v == 0 || (static_cast<std::uint64_t>(v) & 0xff) == key;
  };

  Cache cached;
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> started{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const auto pid = static_cast<ProcessId>(t);
      NativeContext ctx(pid);
      const bool writer = t < 2;
      std::uint64_t local_reads = 0;
      started.fetch_add(1, std::memory_order_acq_rel);
      while (started.load(std::memory_order_acquire) < 4) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
        const std::uint64_t key =
            kMates[writer ? static_cast<std::size_t>(t) : i % 2];
        const std::uint64_t id =
            (((static_cast<std::uint64_t>(t) << 40) | i) << 8) | key;
        if (writer) {
          (void)cached.invoke(ctx, key_write(id, pid, key));
          continue;
        }
        const Response v = cached.invoke(ctx, key_read(id, pid, key)).response;
        if (!decodes(v, key)) bad.fetch_add(1, std::memory_order_relaxed);
        // Probes of both keys between reads sample the slot line far
        // more often than the reads, which mostly wait in a combiner.
        for (std::uint64_t j = 0; j < 8; ++j) {
          const std::uint64_t k = kMates[j % 2];
          const auto p = cached.read_at(static_cast<std::size_t>(t) % 2, k);
          if (p.has_value() && !decodes(*p, k)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
        local_reads += 9;
      }
      reads.fetch_add(local_reads, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(kRun);
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad.load(), 0u) << "of " << reads.load() << " reads";
  EXPECT_GT(cached.hits(), 0u);
}

// ---------------------------------------------------------------------------
// Placement: the fold index

TEST(Replicated, DenseKeysStayResident) {
  constexpr std::size_t kReps = 4;
  using Cache = Replicated<Combining<KeyedRegisters, 8>, kReps, KeyedModel>;
  Cache cached;
  constexpr std::uint64_t kKeys = Cache::kEntryCount;
  static_assert(kKeys <= KeyedRegisters::kKeys);

  NativeContext writer(0);
  std::uint64_t id = 1000;
  std::array<Response, kKeys> values{};
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    values[k] = cached.invoke(writer, key_write(id++, 0, k)).response;
  }
  const auto read_all = [&] {
    for (ProcessId p = 0; p < static_cast<ProcessId>(kReps); ++p) {
      NativeContext ctx(p);
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        ASSERT_EQ(cached.invoke(ctx, key_read(id++, p, k)).response,
                  values[k])
            << "replica " << p << " key " << k;
      }
    }
  };
  read_all();
  const std::uint64_t hits_before = cached.hits();
  const std::uint64_t fills_before = cached.fills();
  read_all();
  // Every key kept a slot of its own on every replica.
  EXPECT_EQ(cached.hits() - hits_before, kKeys * kReps);
  EXPECT_EQ(cached.fills() - fills_before, 0u);
}

// ---------------------------------------------------------------------------
// The reuse gate: a thread whose reads do not hit stops probing and
// filling for all but one read in kGateSample

// Reads through invoke() and submit() alternately (they share the
// gate), each of `key` on the context's replica.
template <class Cache>
struct GateReader {
  Cache& cached;
  NativeContext ctx;
  std::uint64_t reads = 0;

  void read(std::uint64_t key) {
    const Request m = key_read(++reads, ctx.id(), key);
    const ModuleResult r = reads % 2 == 0 ? cached.invoke(ctx, m)
                                          : cached.submit(ctx, m).wait();
    ASSERT_TRUE(r.committed());
    ASSERT_EQ(r.response, 0);
  }
};

TEST(Replicated, ReadsWithoutReuseEnterBypassAndLeaveItWhenKeysComeBack) {
  using Cache = Cached<Combining<KeyedRegisters, 8>, KeyedModel>;
  constexpr std::uint64_t kKeys = 4096;
  constexpr std::uint64_t kWindow = Cache::kGateWindow;
  constexpr std::uint64_t kSample = Cache::kGateSample;
  Cache cached;
  GateReader<Cache> r{cached, NativeContext(0)};

  // Cycling over more keys than the replica holds, no read ever hits:
  // the first window to close puts the thread in bypass.
  while (cached.bypassed() == 0 && r.reads < 2 * kWindow) {
    r.read(r.reads % kKeys);
  }
  ASSERT_GT(cached.bypassed(), 0u) << "no bypass after " << r.reads;
  EXPECT_EQ(cached.hits(), 0u);

  // In bypass only one read in kSample probes, and only a probe fills.
  const std::uint64_t reads_before = r.reads;
  const std::uint64_t fills_before = cached.fills();
  const std::uint64_t bypassed_before = cached.bypassed();
  for (std::uint64_t i = 0; i < 2 * kWindow * kSample; ++i) {
    r.read(r.reads % kKeys);
  }
  const std::uint64_t n = r.reads - reads_before;
  EXPECT_LE(cached.fills() - fills_before, n / kSample + 1);
  EXPECT_GE(cached.bypassed() - bypassed_before, n - n / kSample - 1);
  EXPECT_EQ(cached.hits() + cached.misses(), r.reads);

  // One key read over and over: its probes hit, so the gate opens when
  // the window closes, at most two windows of probes on — kSample
  // reads in a row then bypass none.
  constexpr std::uint64_t kKey = 7;
  const std::uint64_t reuse_from = r.reads;
  std::uint64_t unbypassed_run = 0;
  while (unbypassed_run < kSample &&
         r.reads - reuse_from < 2 * (kWindow + 1) * kSample) {
    const std::uint64_t b = cached.bypassed();
    r.read(kKey);
    unbypassed_run = cached.bypassed() == b ? unbypassed_run + 1 : 0;
  }
  ASSERT_EQ(unbypassed_run, kSample)
      << "still bypassing after " << r.reads - reuse_from << " reads";
  const std::uint64_t hits_before = cached.hits();
  for (std::uint64_t i = 0; i < kWindow; ++i) r.read(kKey);
  EXPECT_EQ(cached.hits() - hits_before, kWindow);
  EXPECT_EQ(cached.hits() + cached.misses(), r.reads);
}

// A cold replica warming up on a hot set misses once per key and then
// hits. Mixed with a stream of keys that never come back, one read in
// nine still hits, above the gate's 1 in kGateSample: windows close on
// the stream's misses and keep the gate open.
TEST(Replicated, AColdReplicaOnAHotSetNeverEntersBypass) {
  constexpr std::size_t kEntries = 128;
  using Cache =
      Replicated<Combining<KeyedRegisters, 8>, 4, KeyedModel, kEntries>;
  constexpr std::uint64_t kHot = 64;
  constexpr std::uint64_t kWindow = Cache::kGateWindow;
  for (std::uint64_t k = 0; k < kHot; ++k) ASSERT_EQ(Cache::slot_of(k), k);
  // The stream's keys sit in the slots the hot set leaves free.
  std::vector<std::uint64_t> stream;
  for (std::uint64_t k = 1000; stream.size() < 4096; ++k) {
    if (Cache::slot_of(k) >= kHot) stream.push_back(k);
  }

  Cache cached;
  GateReader<Cache> r{cached, NativeContext(1)};
  for (std::uint64_t i = 0; i < 64 * kHot; ++i) r.read(i % kHot);
  EXPECT_EQ(cached.misses(), kHot);
  EXPECT_EQ(cached.hits(), 63 * kHot);

  const std::uint64_t hits_before = cached.hits();
  std::uint64_t hot_reads = 0;
  for (std::uint64_t i = 0; i < 16 * kWindow; ++i) {
    if (i % 9 == 0) {
      r.read(hot_reads++ % kHot);
    } else {
      r.read(stream[i % stream.size()]);
    }
  }
  EXPECT_EQ(cached.bypassed(), 0u);
  EXPECT_EQ(cached.hits() - hits_before, hot_reads);
  EXPECT_EQ(cached.hits() + cached.misses(), r.reads);
}

// A read that finds the slot line's `last` mid-install (its seqlock odd
// or moved) has no source left: it is a torn miss. A writer keeps
// reinstalling one key while a reader on another replica, whose entry
// every write invalidates, reads it from the slot line.
TEST(Replicated, TornSlotLineSnapshotsAreCountedAsTornMisses) {
  using Cache = Replicated<Combining<KeyedRegisters, 8>, 2, KeyedModel>;
  constexpr std::uint64_t kKey = 5;
  Cache cached;
  std::atomic<bool> stop{false};
  std::atomic<bool> wrote{false};
  std::thread writer([&] {
    NativeContext ctx(0);
    for (std::uint64_t i = 1; !stop.load(std::memory_order_acquire); ++i) {
      (void)cached.invoke(ctx, key_write(i, 0, kKey));
      wrote.store(true, std::memory_order_release);
    }
  });
  while (!wrote.load(std::memory_order_acquire)) std::this_thread::yield();

  NativeContext ctx(1);
  std::uint64_t reads = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cached.torn_misses() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 1000; ++i) {
      (void)cached.invoke(ctx, key_read(++reads, 1, kKey));
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_GT(cached.torn_misses(), 0u);
  EXPECT_LE(cached.torn_misses(), cached.torn_retries());
  EXPECT_LE(cached.torn_misses(), cached.misses());
  EXPECT_EQ(cached.hits() + cached.misses(), reads);
}

// ---------------------------------------------------------------------------
// Telemetry: the read_at probe is not a read

TEST(Replicated, ReadAtProbeCountsNoTornReads) {
  using Cache = Cached<Combining<KeyedRegisters, 8>, KeyedModel>;
  Cache cached;
  constexpr std::uint64_t kKey = 5;
  constexpr std::uint64_t kWrites = 200000;
  std::atomic<std::uint64_t> writes{0};
  std::atomic<bool> stop{false};

  // Every write reinstalls kKey into the slot line under its seqlock,
  // and replica 0's entry stays empty, so the prober reads the slot
  // line and keeps finding it odd or moved.
  std::thread writer([&] {
    NativeContext ctx(0);
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t i = writes.fetch_add(1, std::memory_order_relaxed);
      (void)cached.invoke(ctx, key_write(i + 1, 0, kKey));
    }
  });
  while (writes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  // Probe for as long as the writer takes to install kWrites times.
  while (writes.load(std::memory_order_relaxed) < kWrites) {
    (void)cached.read_at(0, kKey);
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_GT(cached.fills(), 0u);
  EXPECT_EQ(cached.torn_retries(), 0u);
}

// Eight threads on four replicas: threads t and t + 4 share replica
// t mod 4, so their reads count hits and misses side by side. Each
// thread owns eight keys that no other thread touches, each in a slot
// of its own, so it knows what every one of its operations counts: a
// read hits its replica's entry when nothing wrote the key since the
// entry was filled, hits the slot line and refills the entry after its
// own write, and otherwise misses and fills; a write installs into the
// slot line. A read that carries a switch value counts nothing.
TEST(Replicated, TelemetryIsExactWhenThreadsShareAReplica) {
  using Shards = Sharded<Combining<KeyedRegisters, 8>, 4, ByKeyHash>;
  using Cache = Replicated<Shards, 4, KeyedModel>;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeysEach = 8;
  constexpr std::uint64_t kOps = 60'000;
  static_assert(kThreads * kKeysEach <= Cache::kEntryCount);
  for (std::uint64_t a = 0; a < kThreads * kKeysEach; ++a) {
    for (std::uint64_t b = a + 1; b < kThreads * kKeysEach; ++b) {
      ASSERT_NE(Cache::slot_of(a), Cache::slot_of(b));
    }
  }

  struct Expected {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
  };
  Cache cached;
  std::array<Expected, kThreads> expected{};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto pid = static_cast<ProcessId>(t);
      NativeContext ctx(pid);
      Expected& e = expected[static_cast<std::size_t>(t)];
      // Per owned key: the replica's entry is current; the slot line
      // holds the key's last write.
      std::array<bool, kKeysEach> resident{};
      std::array<bool, kKeysEach> written{};
      std::array<Response, kKeysEach> value{};
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const std::uint64_t h =
            ByKeyHash::mix((static_cast<std::uint64_t>(t) << 32) | i);
        const std::size_t k = h % kKeysEach;
        const std::uint64_t key = static_cast<std::uint64_t>(t) +
                                  kThreads * static_cast<std::uint64_t>(k);
        const std::uint64_t id =
            (static_cast<std::uint64_t>(t) << 40) | (i + 1);
        const std::uint64_t dice = (h >> 16) % 16;
        if (dice < 2) {
          value[k] = cached.invoke(ctx, key_write(id, pid, key)).response;
          ++e.writes;
          ++e.fills;
          resident[k] = false;
          written[k] = true;
          continue;
        }
        std::optional<SwitchValue> init;
        if (dice == 2) init = SwitchValue{7};
        const Response v = cached.invoke(ctx, key_read(id, pid, key), init)
                               .response;
        if (v != value[k]) wrong.fetch_add(1, std::memory_order_relaxed);
        if (init.has_value()) continue;
        ++e.reads;
        if (resident[k]) {
          ++e.hits;
        } else {
          ++(written[k] ? e.hits : e.misses);
          ++e.fills;
          resident[k] = true;
        }
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  Expected total;
  for (const Expected& e : expected) {
    total.reads += e.reads;
    total.writes += e.writes;
    total.hits += e.hits;
    total.misses += e.misses;
    total.fills += e.fills;
  }
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(cached.hits() + cached.misses(), total.reads);
  EXPECT_EQ(cached.hits(), total.hits);
  EXPECT_EQ(cached.misses(), total.misses);
  EXPECT_EQ(cached.invalidations(), total.writes);
  EXPECT_EQ(cached.fills(), total.fills);
  EXPECT_EQ(cached.torn_retries(), 0u);
}

// ---------------------------------------------------------------------------
// Async completions carry no per-operation state

// More async writes in flight at once than a bounded per-caller record
// budget would hold: each still carries its install, so every written
// key's slot line serves its value once the writes complete.
TEST(Replicated, EveryInFlightAsyncWriteInstalls) {
  using Cache = Cached<Combining<KeyedRegisters, 64>, KeyedModel>;
  constexpr std::uint64_t kWrites = 40;
  Cache cached;
  std::array<bool, Cache::kEntryCount> used{};
  for (std::uint64_t k = 1; k <= kWrites; ++k) {
    ASSERT_FALSE(used[Cache::slot_of(k)]) << "key " << k;
    used[Cache::slot_of(k)] = true;
  }

  // Park a holder inside the combiner (straight into the wrapped
  // object, bypassing the cache) so submissions stay in flight.
  g_gate_entered.store(false);
  g_gate_open.store(false);
  std::thread holder([&] {
    NativeContext hctx(2);
    (void)cached.object().invoke(
        hctx, Request{1000, 2, KeyedRegisters::kGateOp, 0});
  });
  while (!g_gate_entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  NativeContext ctx(0);
  std::vector<Ticket<ModuleResult>> tickets;
  for (std::uint64_t k = 1; k <= kWrites; ++k) {
    tickets.push_back(cached.submit(ctx, key_write(100 + k, 0, k)));
  }
  for (auto& t : tickets) EXPECT_FALSE(t.poll());
  const std::uint64_t fills_before = cached.fills();

  g_gate_open.store(true, std::memory_order_release);
  holder.join();
  std::vector<Response> written;
  for (auto& t : tickets) {
    const ModuleResult r = t.wait();
    ASSERT_TRUE(r.committed());
    written.push_back(r.response);
  }

  EXPECT_EQ(cached.invalidations(), kWrites);
  EXPECT_EQ(cached.fills(), fills_before + kWrites);
  for (std::uint64_t k = 1; k <= kWrites; ++k) {
    const auto v = cached.read_at(0, k);
    ASSERT_TRUE(v.has_value()) << "key " << k;
    EXPECT_EQ(*v, written[k - 1]) << "key " << k;
  }
}

// Death-test body: submit while the combiner is held elsewhere, then
// destroy the cache with the ticket still outstanding. A named function
// because template-argument commas inside the EXPECT_DEATH macro would
// split its argument list.
void destroy_cache_with_outstanding_ticket() {
  g_gate_entered.store(false);
  g_gate_open.store(false);
  auto* cached = new Cached<Combining<KeyedRegisters, 8>, KeyedModel>();
  std::thread holder([&] {
    NativeContext hctx(2);
    (void)cached->object().invoke(
        hctx, Request{1000, 2, KeyedRegisters::kGateOp, 0});
  });
  while (!g_gate_entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  NativeContext ctx(0);
  auto t = cached->submit(ctx, key_write(1, 0, 1));
  // The write is published and nobody can serve it: destroying the
  // cache destroys the wrapped Combining, which must die on its
  // occupied-slot assertion.
  delete cached;
  holder.join();  // not reached
}

TEST(Replicated, DestroyingTheCacheWithAnOutstandingTicketDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(destroy_cache_with_outstanding_ticket(),
               "occupied publication slot");
}

// Two callers share each replica and each keeps four submissions in
// flight, so combiners on either shard run fills and installs for other
// threads' operations, into replicas those threads read. Every value
// must decode to its key, every write must invalidate once, and once
// every thread has quiesced the cache must be destroyable: no
// publication is left outstanding in either shard's Combining.
TEST(Replicated, CrossThreadAsyncCompletionsKeepEveryReplicaCoherent) {
  using Shards = Sharded<Combining<KeyedRegisters, 8>, 2, ByKeyHash>;
  using Cache = Replicated<Shards, 2, KeyedModel>;
  constexpr int kThreads = 4;
  constexpr std::size_t kWindow = 4;
  constexpr std::uint64_t kKeys = 16;
  // Long enough for the scheduler to spread the threads over the CPUs.
  constexpr auto kRun = std::chrono::milliseconds(200);
  // A write stores its request id, whose low byte is the key.
  const auto decodes = [](Response v, std::uint64_t key) {
    return v == 0 || (static_cast<std::uint64_t>(v) & 0xff) == key;
  };

  auto cached = std::make_unique<Cache>();
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<int> started{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto pid = static_cast<ProcessId>(t);
      NativeContext ctx(pid);
      struct InFlight {
        Ticket<ModuleResult> ticket;
        std::uint64_t key = 0;
      };
      std::array<InFlight, kWindow> window;
      const auto collect = [&](InFlight& f) {
        if (!f.ticket.valid()) return;
        const ModuleResult r = f.ticket.wait();
        if (!r.committed() || !decodes(r.response, f.key)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      };
      std::uint64_t local_writes = 0;
      started.fetch_add(1, std::memory_order_acq_rel);
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        InFlight& f = window[i % kWindow];
        collect(f);
        const std::uint64_t h =
            ByKeyHash::mix((static_cast<std::uint64_t>(t) << 32) | i);
        f.key = h % kKeys;
        const std::uint64_t id =
            (((static_cast<std::uint64_t>(t) << 40) | (i + 1)) << 8) | f.key;
        const bool is_write = ((h >> 8) & 1) != 0;
        local_writes += is_write ? 1 : 0;
        f.ticket = cached->submit(ctx, is_write ? key_write(id, pid, f.key)
                                                : key_read(id, pid, f.key));
      }
      for (InFlight& f : window) collect(f);
      writes.fetch_add(local_writes, std::memory_order_relaxed);
    });
  }
  while (started.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(kRun);
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(cached->invalidations(), writes.load());
  EXPECT_GT(cached->fills(), 0u);
  // Quiesced: a surviving entry on any replica holds the object's value.
  NativeContext ctx(0);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const Response now =
        cached->object().invoke(ctx, key_read(1, 0, key)).response;
    for (std::size_t rep = 0; rep < 2; ++rep) {
      if (const auto v = cached->read_at(rep, key)) {
        EXPECT_EQ(*v, now) << "key " << key << " replica " << rep;
      }
    }
  }
  cached.reset();
}

}  // namespace
}  // namespace scm
