// The output checks behind every run's `failed` count, as pure
// functions of values the workloads observe, so check_probes() can
// feed each one a seeded bad value and confirm it is counted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/module.hpp"
#include "harness.hpp"

namespace perfbench {

// Per-caller order of fetch&inc tickets: each caller's tickets must
// strictly increase (the counter is linearizable and the caller's
// operations are sequential).
struct TicketOrder {
  std::uint64_t last = 0;
  bool seen = false;

  [[nodiscard]] bool accept(std::uint64_t t) noexcept {
    const bool ok = !seen || t > last;
    seen = true;
    last = t;
    return ok;
  }
};

// Exact-count check for a quiescent window: n fetch&inc operations
// that found the counter at c0 must leave it at c0 + n and, between
// them, receive exactly the tickets c0 .. c0 + n - 1 (whose sum the
// callers accumulated). Unsigned arithmetic wraps identically on both
// sides, so the sum comparison is exact.
inline void check_ticket_window(Report& rep, std::uint64_t n,
                                std::uint64_t ticket_sum, std::uint64_t c0,
                                std::uint64_t c1) {
  rep.check(c1 - c0 == n, "final count != operations issued");
  rep.check(ticket_sum == n * c0 + (n % 2 == 0 ? (n / 2) * (n - 1)
                                               : n * ((n - 1) / 2)),
            "ticket sum != the sum of the window's ticket range");
}

// Keyed-store values carry their key in the high bits, so a torn or
// misrouted value decodes to the wrong key.
inline constexpr std::uint64_t kPayloadBits = 20;

[[nodiscard]] inline bool value_ok(const scm::ModuleResult& r,
                                   std::uint64_t key) noexcept {
  return r.committed() &&
         (static_cast<std::uint64_t>(r.response) >> kPayloadBits) == key;
}

// Caching-layer accounting over a quiescent window: one invalidation
// per committed write, one hit-or-miss lookup per read.
inline void check_cache_window(Report& rep, std::uint64_t writes,
                               std::uint64_t reads,
                               std::uint64_t invalidations,
                               std::uint64_t lookups) {
  rep.check(invalidations == writes, "invalidations != writes");
  rep.check(lookups == reads, "cache hits + misses != reads issued");
}

// Slot residue: a quiesced combiner holds no publication record.
inline void check_residue(Report& rep, std::size_t occupied) {
  rep.check(occupied == 0, "publication slots still occupied after the run");
}

// Feeds every check a seeded bad value (and a good one) and returns a
// description of each check that failed to count it.
inline std::vector<std::string> check_probes() {
  std::vector<std::string> errs;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) errs.emplace_back(what);
  };
  const auto failures = [](auto&& fn) {
    Report rep;
    fn(rep);
    return rep.failed;
  };

  TicketOrder order;
  expect(order.accept(5) && order.accept(9) && !order.accept(7),
         "an out-of-order ticket was not counted");

  // 4 ops from c0 = 10: tickets 10..13, sum 46, final count 14.
  expect(failures([](Report& r) { check_ticket_window(r, 4, 46, 10, 14); }) ==
             0,
         "a correct ticket window was counted as failed");
  expect(failures([](Report& r) { check_ticket_window(r, 4, 47, 10, 14); }) ==
             1,
         "a wrong ticket sum was not counted");
  expect(failures([](Report& r) { check_ticket_window(r, 4, 46, 10, 15); }) ==
             1,
         "a wrong final count was not counted");

  const auto good = scm::ModuleResult::commit(
      static_cast<scm::Response>((std::uint64_t{7} << kPayloadBits) | 3));
  expect(value_ok(good, 7), "a value of the right key was rejected");
  expect(!value_ok(good, 8), "a value of another key was not counted");
  expect(!value_ok(scm::ModuleResult::abort_with(0), 0),
         "an uncommitted result was not counted");

  expect(failures([](Report& r) { check_cache_window(r, 5, 9, 5, 9); }) == 0,
         "a correct cache window was counted as failed");
  expect(failures([](Report& r) { check_cache_window(r, 5, 9, 4, 9); }) == 1,
         "a missing invalidation was not counted");
  expect(failures([](Report& r) { check_cache_window(r, 5, 9, 5, 10); }) == 1,
         "a cache lookup from outside the window was not counted");

  expect(failures([](Report& r) { check_residue(r, 0); }) == 0,
         "an empty slot array was counted as residue");
  expect(failures([](Report& r) { check_residue(r, 1); }) == 1,
         "slot residue was not counted");
  return errs;
}

}  // namespace perfbench
