// Exhaustive model checking of the in-process flat-combining wrapper,
// Combining<TicketModule, 2> (core/combining.hpp), exactly as shipped:
// every interleaving of 2 and 3 processes through its publication-slot
// protocol (core/slot_protocol.hpp), each run checked for a
// linearizable fetch&inc history, zero slot residue, and a released
// election gate. Three processes through two slots exhaust the array,
// so the claim_or_run inline fallback is explored too.
//
// Its cross-process sibling, ShmCombining, is explored the same way in
// slot_protocol_explore_test. Both executors run the one slot-protocol
// implementation (core/slot_protocol.hpp), so the two trees check the
// same claim, publish, serve, collect, gate and wait code
// (CombiningCore) under each executor's own policy: this one's
// elect_spins election, inline fallback and callbacks, ShmCombining's
// pid stamps, may_combine and claim wait. The trees live
// in separate binaries so ctest -j runs them in parallel.
#include <gtest/gtest.h>

#include "core/combining.hpp"
#include "slot_explore.hpp"

namespace scm {
namespace {

using InProcess = Combining<slot_explore::TicketModule, 2>;

TEST(CombiningExplore, TwoProcsTwoSlotsLinearizableNoResidue) {
  const auto stats = slot_explore::explore_fetch_inc<InProcess>(2);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 20u);
}

TEST(CombiningExplore, ThreeProcsTwoSlotsLinearizableNoResidue) {
  const auto stats = slot_explore::explore_fetch_inc<InProcess>(3);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 146'184u);
}

}  // namespace
}  // namespace scm
