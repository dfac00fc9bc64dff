// Per-process identity without a syscall per use.
//
// glibc stopped caching getpid() in 2.25, so every call is a kernel
// entry (about 150 ns on a 4-CPU Xeon KVM guest). The cross-process
// executor stamps the caller's pid on every op and every server pass,
// so it reads the pid from this_process_id() instead: one getpid() the
// first time a process asks, a relaxed load of a process-wide cache
// every time after.
//
// fork() copies the cache into the child, where it names the PARENT.
// A pthread_atfork child handler, registered before the cache is first
// filled, clears it, so the child's first this_process_id() resolves
// its own pid. The same handler clears the forking thread's telemetry
// cell seed (this_thread_cell), the other per-process value a forked
// child would otherwise inherit. The forking thread is the only thread
// in the child, so clearing its thread_local there is enough.
//
// The limit: a child started by a raw clone() or by vfork() runs no
// atfork handler and would keep its parent's stamp. Nothing in this
// repository creates processes that way; fork() (and posix_spawn,
// whose child execs a fresh image) are the supported paths.
#pragma once

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "support/assert.hpp"

namespace scm {
namespace detail {

// 0 = not resolved in this process yet. Pids are never 0.
inline std::atomic<std::uint32_t> cached_process_id{0};

// This thread's telemetry cell seed; 0 = not drawn yet (a drawn seed
// includes the pid, so it is never 0).
inline thread_local std::size_t thread_cell_seed = 0;

// pthread_atfork child handler: runs in the child, on its one thread.
inline void forget_process_identity() noexcept {
  cached_process_id.store(0, std::memory_order_relaxed);
  thread_cell_seed = 0;
}

[[gnu::noinline]] inline std::uint32_t resolve_process_id() noexcept {
  // Registered once per process, before the first fill: a fork that
  // copies a filled cache always runs the handler that clears it.
  static const int hooked =
      ::pthread_atfork(nullptr, nullptr, &forget_process_identity);
  SCM_CHECK_MSG(hooked == 0,
                "pthread_atfork failed: a forked child would keep its "
                "parent's pid");
  const auto pid = static_cast<std::uint32_t>(::getpid());
  cached_process_id.store(pid, std::memory_order_relaxed);
  return pid;
}

}  // namespace detail

// The calling process's pid, resolved once per process (and once more
// in each forked child).
inline std::uint32_t this_process_id() noexcept {
  const std::uint32_t pid =
      detail::cached_process_id.load(std::memory_order_relaxed);
  return pid != 0 ? pid : detail::resolve_process_id();
}

namespace detail {

// This thread's telemetry cell seed, drawn once per thread and again in
// a forked child: a process-wide sequence number offset by the pid, so
// the threads of one process and the first-waiting threads of sibling
// processes sharing a segment-resident WaitPoint start on different
// cells.
inline std::size_t this_thread_cell() noexcept {
  static std::atomic<std::size_t> next{0};
  if (thread_cell_seed == 0) {
    thread_cell_seed = next.fetch_add(1, std::memory_order_relaxed) +
                       static_cast<std::size_t>(this_process_id());
  }
  return thread_cell_seed;
}

}  // namespace detail
}  // namespace scm
