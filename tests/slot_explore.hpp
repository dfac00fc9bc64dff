// Shared harness for the exhaustive slot-protocol explorations of the
// two shipping combining executors: ShmCombining
// (slot_protocol_explore_test) and the in-process Combining
// (combining_explore_test). Both wrap the same fetch&inc module and are
// driven, exactly as shipped, through sim::explore_all_schedules.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "core/module.hpp"
#include "fixtures.hpp"
#include "history/request.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "sim/explorer.hpp"
#include "sim/simulator.hpp"

namespace scm::slot_explore {

using fixtures::TicketModule;

inline Request inc_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kFetchInc, 0};
}

// Rebuilds the simulator's recorded ops as ConcurrentOps for the
// Wing&Gong checker; `tag` is the request id, `output` the ticket.
inline std::vector<ConcurrentOp> history_of(const sim::Simulator& sim) {
  std::vector<ConcurrentOp> ops;
  for (const auto& rec : sim.ops()) {
    ConcurrentOp op;
    op.pid = rec.pid;
    op.request = inc_req(static_cast<std::uint64_t>(rec.tag), rec.pid);
    op.response = rec.output;
    op.invoke = rec.invoke_event;
    op.ret = rec.response_event;
    op.completed = rec.complete;
    ops.push_back(op);
  }
  return ops;
}

// Explores every interleaving of `procs` processes, each invoking one
// fetch&inc through a fresh Wrapper<TicketModule, ...>, and checks every
// run: all ops completed, the history linearizes against CounterSpec,
// the object executed exactly `procs` ops, no record is left occupied,
// and the election gate is free. Returns the explorer's stats so the
// caller pins the exact tree size.
template <class Wrapper>
sim::ExploreStats explore_fetch_inc(int procs) {
  std::shared_ptr<Wrapper> w;
  std::uint64_t runs = 0;
  auto stats = sim::explore_all_schedules(
      [&] {
        w = std::make_shared<Wrapper>();
        auto sim = std::make_unique<sim::Simulator>();
        for (int p = 0; p < procs; ++p) {
          sim->add_process([w, p](sim::SimContext& ctx) {
            const auto id = static_cast<std::uint64_t>(p) + 1;
            ctx.begin_op(static_cast<std::int64_t>(id));
            const ModuleResult r = w->invoke(ctx, inc_req(id, ctx.id()));
            ctx.end_op(r.response);
          });
        }
        return sim;
      },
      [&](sim::Simulator& sim) {
        ++runs;
        ASSERT_EQ(sim.ops().size(), static_cast<std::size_t>(procs));
        for (const auto& op : sim.ops()) ASSERT_TRUE(op.complete);
        ASSERT_TRUE(linearizable<CounterSpec>(history_of(sim)))
            << "non-linearizable interleaving at run " << runs;
        ASSERT_EQ(w->object().count(), static_cast<std::uint64_t>(procs));
        ASSERT_EQ(w->occupied(), 0u);
        ASSERT_EQ(w->gate_holder(), 0u);
      });
  EXPECT_EQ(stats.runs, runs);
  std::cerr << "[ protocol ] " << procs << " procs x " << Wrapper::kSlotCount
            << " slots: " << stats.runs << " interleavings verified\n";
  return stats;
}

}  // namespace scm::slot_explore
