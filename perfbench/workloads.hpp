// The four end-to-end workloads and their self-checks.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

// counter-hot: Adaptive<Combining<FastPipeline<Relay x3, TicketSink>>>,
// every op a fetch&inc returning its ticket.
void run_counter_hot(const Options& opts, Report& rep);

// kv-read-mostly / kv-write-heavy:
// Replicated<Sharded<Combining<KeyedStore>, ByKeyHash>>.
void run_kv_read_mostly(const Options& opts, Report& rep);
void run_kv_write_heavy(const Options& opts, Report& rep);

// ipc-counter: ShmCombining<ShmCounter> served by this process for
// forked client processes.
void run_ipc_counter(const Options& opts, Report& rep);

// Solo equivalence: each in-process stack with a shim at every layer
// boundary returns bit-identical results to the bare stack. Returns
// one line per mismatch.
std::vector<std::string> counter_hot_probes();
std::vector<std::string> kv_probes();

}  // namespace perfbench
