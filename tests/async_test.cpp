// Tests for the async submission layer (core/async.hpp and the
// submit/complete surface threaded through every composition layer):
//
//  * Ticket<R> state machine: ready / pending / consumed, move-only
//    ownership, destructor settles abandoned operations;
//  * submit().wait() — and the submit()+poll()/try_result() path — is
//    bit-identical to invoke() for a single-threaded caller on every
//    layer: Pipeline, FastPipeline, Sharded, Combining, and their
//    nestings (the acceptance pin for this surface);
//  * on the simulator (an awaitable context) submit() completes
//    inline and the tickets are born ready;
//  * a solo caller's all-fast-path run issues no futex syscall on the
//    combining layers;
//  * the publication path proper: with the combiner lock held
//    elsewhere, submit() publishes and returns pending tickets, the
//    eventual combiner serves the backlog in one pass and runs the
//    publishers' completion callbacks, and drain() executes every
//    publication submitted before it;
//  * concurrent submit/poll/wait histories (overlapping windows, mixed
//    collection strategies) linearize against CounterSpec — every
//    operation takes effect inside its submit→collect interval;
//  * ticket ownership stress: dropped tickets still execute and run
//    their callbacks, and at quiescence no publication record is
//    occupied;
//  * destroying a Combining with an outstanding publication dies on
//    the destructor assertion (death test).
//
// Runs under the "tsan" ctest label: the CI sanitizer job executes
// this suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/async.hpp"
#include "core/batch.hpp"
#include "core/combining.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "core/sharding.hpp"
#include "fixtures.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/context.hpp"
#include "runtime/platform.hpp"
#include "runtime/wait.hpp"
#include "sim/schedules.hpp"
#include "sim/simulator.hpp"
#include "workload/driver.hpp"

namespace scm {
namespace {

using fixtures::HopModule;
using fixtures::SinkModule;
using fixtures::TicketModule;

using sim::SimContext;
using sim::Simulator;

// Parks the calling thread inside the wrapped object for requests with
// op == 1 until the gate opens — the deterministic way to keep the
// combiner lock held (its holder is stuck in the module) while a test
// publishes. File-scope flags so the module stays default-constructible
// inside pipelines; each user resets them.
std::atomic<bool> g_gate_entered{false};
std::atomic<bool> g_gate_open{true};

struct GateModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& /*ctx*/, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    if (m.op == 1) {
      g_gate_entered.store(true, std::memory_order_release);
      while (!g_gate_open.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    return ModuleResult::commit(init.value_or(0) + m.arg);
  }
};

Request req(std::uint64_t id, ProcessId p, std::int64_t arg = 0,
            std::int64_t op = 0) {
  return Request{id, p, op, arg};
}

// A completion callback that appends the request it was handed to the
// vector behind its cookie: a test then checks that every op's callback
// got that op's own request, in firing order.
using SeenRequests = std::vector<Request>;
void record_request(void* user, const Request& m, const ModuleResult&) {
  static_cast<SeenRequests*>(user)->push_back(m);
}

// ---------------------------------------------------------------------------
// Ticket state machine

TEST(Ticket, ReadyPendingAndConsumedStates) {
  Ticket<ModuleResult> empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.poll());
  EXPECT_FALSE(empty.try_result().has_value());

  auto ready = Ticket<ModuleResult>::ready(ModuleResult::commit(7));
  EXPECT_TRUE(ready.valid());
  EXPECT_TRUE(ready.poll());
  EXPECT_TRUE(ready.poll());  // poll is non-consuming
  const auto r = ready.try_result();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->response, 7);
  EXPECT_FALSE(ready.valid());  // consumed
  EXPECT_FALSE(ready.try_result().has_value());

  // Move transfers the operation; the source is left empty.
  auto a = Ticket<ModuleResult>::ready(ModuleResult::commit(3));
  Ticket<ModuleResult> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.wait().response, 3);
  EXPECT_FALSE(b.valid());
}

// ---------------------------------------------------------------------------
// submit().wait() == invoke(), single-threaded, on every layer

template <class Layer>
void expect_solo_submit_equivalence(Layer& layer) {
  Pipeline<HopModule, TicketModule> reference;
  NativeContext ctx(0);
  for (std::uint64_t i = 0; i < 48; ++i) {
    const ModuleResult want = reference.invoke(ctx, req(i + 1, 0));
    ModuleResult got;
    if (i % 2 == 0) {
      got = layer.submit(ctx, req(i + 1, 0)).wait();
    } else {
      auto t = layer.submit(ctx, req(i + 1, 0));
      ASSERT_TRUE(t.poll());  // solo: every path completes inline
      const auto r = t.try_result();
      ASSERT_TRUE(r.has_value());
      got = *r;
    }
    ASSERT_EQ(got.outcome, want.outcome) << "op " << i;
    ASSERT_EQ(got.response, want.response) << "op " << i;
    ASSERT_EQ(got.switch_value, want.switch_value) << "op " << i;
  }
}

TEST(AsyncSubmit, SoloSubmitWaitMatchesInvokeOnEveryLayer) {
  using Pipe = Pipeline<HopModule, TicketModule>;
  {
    Pipe pipe;
    expect_solo_submit_equivalence(pipe);
  }
  {
    FastPipeline<HopModule, TicketModule> fast;
    expect_solo_submit_equivalence(fast);
  }
  {
    Sharded<Pipe, 4, ByThread> sharded;
    expect_solo_submit_equivalence(sharded);
  }
  // Solo, every submit takes the uncontended inline fast path, which
  // never publishes and has nothing to park on: any futex syscall
  // means the parking rung leaked into the fast path.
  {
    Combining<Pipe, 4> combined;
    expect_solo_submit_equivalence(combined);
    EXPECT_EQ(combined.direct_ops(), 48u);
    EXPECT_EQ(combined.combine_rounds(), 0u);
    EXPECT_EQ(combined.park_stats().futex_syscalls, 0u);
  }
  {
    Sharded<Combining<Pipe, 4>, 2, ByThread> nested;
    expect_solo_submit_equivalence(nested);
    EXPECT_EQ(nested.direct_ops(), 48u);
    EXPECT_EQ(nested.combine_rounds(), 0u);
    EXPECT_EQ(nested.park_stats().futex_syscalls, 0u);
  }
}

TEST(AsyncSubmit, SimulatorContextCompletesInline) {
  static_assert(!detail::context_can_await_v<NativeContext>);
  static_assert(detail::context_can_await_v<SimContext>);

  // Under a sim context, Combining::submit must degenerate to
  // invoke() + ready ticket: pending tickets are a native-thread
  // surface.
  Combining<Pipeline<HopModule, SinkModule>, 4> combined;
  Simulator s;
  s.add_process([&](SimContext& ctx) {
    SeenRequests seen;
    for (std::uint64_t i = 0; i < 4; ++i) {
      auto t = combined.submit(ctx, req(i + 1, 0), std::nullopt,
                               &record_request, &seen);
      ASSERT_TRUE(t.poll());
      EXPECT_EQ(t.wait().response, 1);
      ASSERT_EQ(seen.size(), i + 1);
      EXPECT_EQ(seen.back(), req(i + 1, 0));
    }
    combined.drain(ctx);  // no-op, nothing can be pending
    EXPECT_EQ(seen.size(), 4u);
  });
  sim::SequentialSchedule sched;
  s.run(sched);
}

// ---------------------------------------------------------------------------
// The publication path proper (combiner lock held elsewhere)

TEST(AsyncSubmit, PublishedSubmissionsAreServedInOneCombinePass) {
  constexpr std::uint64_t kPublished = 6;
  g_gate_entered.store(false);
  g_gate_open.store(false);

  Combining<Pipeline<GateModule>, 16> combined;
  std::thread holder([&] {
    NativeContext hctx(1);
    // op == 1 parks inside the module with the combiner lock held.
    EXPECT_EQ(combined.invoke(hctx, req(1000, 1, 777, 1)).response, 777);
  });
  while (!g_gate_entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  NativeContext ctx(0);
  SeenRequests seen;
  std::vector<Ticket<ModuleResult>> tickets;
  for (std::uint64_t i = 0; i < kPublished; ++i) {
    tickets.push_back(combined.submit(
        ctx, req(i + 1, 0, static_cast<std::int64_t>(i + 10)), std::nullopt,
        &record_request, &seen));
  }

  // The lock is held and no combiner can run: nothing may complete.
  for (auto& t : tickets) EXPECT_FALSE(t.poll());
  EXPECT_TRUE(seen.empty());

  // Open the gate: the holder finishes, combines the whole backlog in
  // one pass (running the callbacks), and returns.
  g_gate_open.store(true, std::memory_order_release);
  holder.join();

  for (std::uint64_t i = 0; i < kPublished; ++i) {
    EXPECT_TRUE(tickets[i].poll());
    EXPECT_EQ(tickets[i].wait().response,
              static_cast<Response>(i + 10));
  }
  // One pass over records 0..5 in order: each callback got its own
  // request back out of the combiner's batch, not the overwritten
  // record.
  ASSERT_EQ(seen.size(), kPublished);
  for (std::uint64_t i = 0; i < kPublished; ++i) {
    EXPECT_EQ(seen[i], req(i + 1, 0, static_cast<std::int64_t>(i + 10)));
  }
  EXPECT_EQ(combined.combine_rounds(), 1u);
  EXPECT_EQ(combined.combined_ops(), kPublished);
  EXPECT_EQ(combined.direct_ops(), 1u);  // the holder's own op
}

TEST(AsyncSubmit, DrainExecutesEveryPublicationSubmittedBefore) {
  g_gate_entered.store(false);
  g_gate_open.store(false);

  Combining<Pipeline<GateModule>, 8> combined;
  std::thread holder([&] {
    NativeContext hctx(1);
    (void)combined.invoke(hctx, req(1000, 1, 0, 1));
  });
  while (!g_gate_entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  NativeContext ctx(0);
  SeenRequests seen;
  std::vector<Ticket<ModuleResult>> tickets;
  for (std::uint64_t i = 0; i < 5; ++i) {
    tickets.push_back(combined.submit(
        ctx, req(i + 1, 0, static_cast<std::int64_t>(i)), std::nullopt,
        &record_request, &seen));
  }
  EXPECT_TRUE(seen.empty());

  g_gate_open.store(true, std::memory_order_release);
  // drain() helps combine until nothing is pending; whichever of the
  // holder and this thread serves the backlog, all five submissions
  // have executed when it returns — before any ticket is touched.
  combined.drain(ctx);
  ASSERT_EQ(seen.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(seen[i], req(i + 1, 0, static_cast<std::int64_t>(i)));
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(tickets[i].poll());
    EXPECT_EQ(tickets[i].wait().response, static_cast<Response>(i));
  }
  holder.join();
}

TEST(AsyncSubmit, ExhaustedPublicationArrayFallsBackToInlineExecution) {
  // Liveness pin: when every publication record is held by an
  // uncollected ticket, a further submit must NOT wait for a record
  // (the owners may never poll from where they sit) — it executes
  // inline under the combiner lock and returns a ready ticket.
  constexpr std::size_t kSlots = 4;
  g_gate_entered.store(false);
  g_gate_open.store(false);

  Combining<Pipeline<GateModule>, kSlots> combined;
  std::thread holder([&] {
    NativeContext hctx(1);
    (void)combined.invoke(hctx, req(1000, 1, 0, 1));
  });
  while (!g_gate_entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // Fill the whole array with pending publications.
  NativeContext ctx(0);
  std::vector<Ticket<ModuleResult>> tickets;
  for (std::uint64_t i = 0; i < kSlots; ++i) {
    tickets.push_back(
        combined.submit(ctx, req(i + 1, 0, static_cast<std::int64_t>(i))));
  }

  // A further submitter finds no free record. Once the gate opens, the
  // holder combines (slots turn done but stay OCCUPIED — their tickets
  // are uncollected) and releases the lock; the submitter then runs
  // inline and its ticket is born ready.
  std::atomic<bool> extra_done{false};
  SeenRequests seen;
  std::thread extra([&] {
    NativeContext ectx(2);
    auto t = combined.submit(ectx, req(99, 2, 777), std::nullopt,
                             &record_request, &seen);
    EXPECT_TRUE(t.poll());
    EXPECT_EQ(t.wait().response, 777);
    extra_done.store(true, std::memory_order_release);
  });
  g_gate_open.store(true, std::memory_order_release);
  holder.join();
  extra.join();
  EXPECT_TRUE(extra_done.load());
  // The inline run fired the extra op's callback with its own request.
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], req(99, 2, 777));

  for (std::uint64_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(tickets[i].wait().response, static_cast<Response>(i));
  }
  // holder + extra ran direct; the kSlots publications were combined.
  EXPECT_EQ(combined.direct_ops(), 2u);
  EXPECT_EQ(combined.combined_ops(), static_cast<std::uint64_t>(kSlots));
}

TEST(AsyncSubmit, ShardedForwardsCallbackCarryingSubmit) {
  // The README's async example shape: a Sharded of per-shard
  // Combinings exposes the FULL submit/complete surface —
  // callback-carrying submit and drain — not just the plain ticket
  // form.
  Sharded<Combining<Pipeline<HopModule, TicketModule>, 8>, 2, ByThread> obj;
  NativeContext ctx(0);
  SeenRequests seen;

  // Solo, so every op runs on its shard's fast path.
  for (std::uint64_t i = 0; i < 8; ++i) {
    auto t = obj.submit(ctx, req(i + 1, 0), std::nullopt, &record_request,
                        &seen);
    EXPECT_TRUE(t.wait().committed());
    ASSERT_EQ(seen.size(), i + 1);
    EXPECT_EQ(seen.back(), req(i + 1, 0));
  }
  obj.drain(ctx);

  EXPECT_EQ(seen.size(), 8u);
  std::uint64_t sink = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    sink += obj.shard(s).object().stage<1>().count();
  }
  EXPECT_EQ(sink, 8u);
}

// ---------------------------------------------------------------------------
// Concurrent histories linearize (overlapping submit windows)

TEST(AsyncSubmit, ConcurrentSubmitPollWaitHistoriesLinearize) {
  // Each thread keeps a window of TWO outstanding tickets, collecting
  // the older one after submitting the next — genuinely overlapping
  // submit→collect intervals, mixed wait()/poll() collection. A global
  // atomic clock stamps the intervals; the Wing&Gong checker searches
  // for a linearization against CounterSpec. Trace sizes stay small —
  // the checker is exponential in overlap.
  constexpr int kThreads = 3;
  constexpr std::uint64_t kOps = 4;

  for (int round = 0; round < 10; ++round) {
    Combining<Pipeline<HopModule, TicketModule>, 8> combined;
    std::atomic<std::uint64_t> clock{0};
    struct Recorded {
      Response response = 0;
      std::uint64_t invoke = 0;
      std::uint64_t ret = 0;
    };
    std::array<std::array<Recorded, kOps>, kThreads> rec{};

    (void)workload::run_threads(
        kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
          const auto tid = static_cast<std::size_t>(ctx.id());
          // Thread-local window of one pending (ticket, op) pair.
          struct Outstanding {
            Ticket<ModuleResult> ticket;
            std::uint64_t op = 0;
          };
          static thread_local std::optional<Outstanding> window;
          if (i == 0) window.reset();  // fresh per round

          const Request m{(static_cast<std::uint64_t>(ctx.id()) << 40) |
                              (i + 1),
                          ctx.id(), CounterSpec::kFetchInc, 0};
          rec[tid][i].invoke = clock.fetch_add(1, std::memory_order_acq_rel);
          auto t = combined.submit(ctx, m);

          if (window.has_value()) {
            auto& o = *window;
            ModuleResult r;
            if (o.op % 2 == 0) {
              r = o.ticket.wait();
            } else {
              // poll() never helps: drain between polls so progress
              // does not depend on the other threads still running.
              while (!o.ticket.poll()) combined.drain(ctx);
              r = *o.ticket.try_result();
            }
            rec[tid][o.op].ret =
                clock.fetch_add(1, std::memory_order_acq_rel);
            rec[tid][o.op].response = r.response;
            window.reset();
          }
          if (i + 1 == kOps) {
            // Last op: collect inline so the history is complete.
            const ModuleResult r = t.wait();
            rec[tid][i].ret = clock.fetch_add(1, std::memory_order_acq_rel);
            rec[tid][i].response = r.response;
          } else {
            window = Outstanding{std::move(t), i};
          }
        });

    std::vector<ConcurrentOp> ops;
    for (int t = 0; t < kThreads; ++t) {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const auto& r =
            rec[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        ConcurrentOp op;
        op.pid = static_cast<ProcessId>(t);
        op.request = Request{(static_cast<std::uint64_t>(t) << 40) | (i + 1),
                             static_cast<ProcessId>(t),
                             CounterSpec::kFetchInc, 0};
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
// Ticket ownership / drain stress (the tsan label's main customer)

TEST(AsyncSubmit, OwnershipStressDropsPollsWaitsAndDrains) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 384;
  constexpr std::uint64_t kTotal = kThreads * kOps;

  Combining<Pipeline<HopModule, TicketModule>, 8> combined;
  // Callback firings per op, found from the request each callback was
  // handed: thread id in the id's high bits, op index below.
  std::vector<std::atomic<std::uint32_t>> fired(kTotal);
  std::atomic<std::uint64_t> collected{0};

  (void)workload::run_threads(
      kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
        const Request m{(static_cast<std::uint64_t>(ctx.id()) << 40) |
                            (i + 1),
                        ctx.id(), CounterSpec::kFetchInc, 0};
        switch (i % 4) {
          case 0: {  // submit + wait
            if (combined.submit(ctx, m).wait().committed()) {
              collected.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 1: {  // submit + poll-spin + try_result
            auto t = combined.submit(ctx, m);
            // poll() never helps: drain between polls, or a publication
            // that lands after every other thread has finished would
            // wait forever for a combiner.
            while (!t.poll()) combined.drain(ctx);
            if (t.try_result()->committed()) {
              collected.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 2: {  // dropped ticket with callback: the result only
                     // reaches the callback
            auto t = combined.submit(
                ctx, m, std::nullopt,
                [](void* user, const Request& op, const ModuleResult& r) {
                  if (!r.committed()) return;
                  const std::uint64_t k =
                      (op.id >> 40) * kOps + (op.id & ((1ull << 40) - 1)) - 1;
                  (*static_cast<std::vector<std::atomic<std::uint32_t>>*>(
                       user))[k]
                      .fetch_add(1, std::memory_order_relaxed);
                },
                &fired);
            (void)t;
            break;
          }
          default: {  // dropped ticket: the destructor settles it
            auto t = combined.submit(ctx, m);
            (void)t;
            break;
          }
        }
        if (i + 1 == kOps) combined.drain(ctx);
      });

  NativeContext main_ctx(99);
  combined.drain(main_ctx);
  // Every op executed exactly once (the sink counter is the ground
  // truth), every dropped ticket's callback fired once, handed its own
  // op's request, and no other op's did; every collected result
  // committed. Quiescence: the Combining destructor at scope exit
  // asserts all publication records are free.
  EXPECT_EQ(combined.object().stage<1>().count(), kTotal);
  for (std::uint64_t k = 0; k < kTotal; ++k) {
    EXPECT_EQ(fired[k].load(), k % kOps % 4 == 2 ? 1u : 0u) << "op " << k;
  }
  EXPECT_EQ(collected.load(), kTotal / 2);
  EXPECT_EQ(combined.combined_ops() + combined.direct_ops(), kTotal);
}

// ---------------------------------------------------------------------------
// Destructor assertion (death test)

// Death-test body: publish while the combiner lock is held elsewhere,
// then destroy the wrapper with the publication still pending. A named
// function because template-argument commas inside the EXPECT_DEATH
// macro would split its argument list.
void destroy_combining_with_outstanding_publication() {
  g_gate_entered.store(false);
  g_gate_open.store(false);
  auto* combined = new Combining<Pipeline<GateModule>, 4>();
  std::thread holder([&] {
    NativeContext hctx(1);
    (void)combined->invoke(hctx, req(1000, 1, 0, 1));
  });
  while (!g_gate_entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  NativeContext ctx(0);
  auto t = combined->submit(ctx, req(1, 0, 5));
  // The publication is pending (the lock holder is parked, no combiner
  // can serve it): destroying the wrapper now must die on the
  // occupied-slot assertion.
  delete combined;
  holder.join();  // not reached
}

TEST(AsyncSubmit, DestroyingCombiningWithOutstandingPublicationDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(destroy_combining_with_outstanding_publication(),
               "occupied publication slot");
}

// ---------------------------------------------------------------------------
// drain() with nothing in flight

// drain() on a Combining that has never seen a publication (and again
// after everything already completed) must return immediately: callers
// drain defensively after short runs where nothing may be in flight.
TEST(AsyncSubmit, DrainOnEmptyCombiningReturnsImmediately) {
  Combining<TicketModule, 4> cell;
  NativeContext ctx(0);
  cell.drain(ctx);  // fresh object: no publication has ever existed
  EXPECT_EQ(cell.object().count(), 0u);

  EXPECT_TRUE(cell.invoke(ctx, req(1, 0)).committed());
  cell.drain(ctx);  // quiescent again: the only op already collected
  cell.drain(ctx);  // idempotent
  EXPECT_EQ(cell.object().count(), 1u);
  EXPECT_EQ(cell.combine_rounds() + cell.direct_ops(), 1u);
}

}  // namespace
}  // namespace scm
