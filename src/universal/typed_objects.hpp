// Typed façades over the universal chain — the "more complex objects"
// of the paper's conclusions (queues, fetch-and-increment registers)
// with ordinary method interfaces instead of raw requests.
//
// Each façade owns a three-stage Proposition-1 chain (registers-only
// SplitConsensus -> registers-only AbortableBakery -> wait-free CAS)
// and mints unique request ids per process. All operations are
// wait-free and linearizable; quiet executions never leave the
// register stages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "consensus/abortable_bakery.hpp"
#include "consensus/cas_consensus.hpp"
#include "consensus/split_consensus.hpp"
#include "history/specs.hpp"
#include "support/cacheline.hpp"
#include "universal/composable_universal.hpp"
#include "universal/static_chain.hpp"

namespace scm {

namespace detail {

// Per-process unique request-id minting.
template <class P>
class RequestMinter {
 public:
  explicit RequestMinter(int n)
      : seq_(std::make_unique<Padded<std::uint64_t>[]>(
            static_cast<std::size_t>(n))) {}

  Request mint(typename P::Context& ctx, std::int64_t op, std::int64_t arg) {
    auto& mine = seq_[static_cast<std::size_t>(ctx.id())].value;
    const std::uint64_t id =
        (static_cast<std::uint64_t>(ctx.id()) << 40) | ++mine;
    return Request{id, ctx.id(), op, arg};
  }

 private:
  std::unique_ptr<Padded<std::uint64_t>[]> seq_;
};

// The Proposition-1 chain every façade owns: the three stages, the
// chain over them, and the request minter. Cap bounds the total
// operations the object accepts over its lifetime (a model parameter
// of the underlying construction).
template <class P, class Spec, std::size_t Cap>
class StandardChain {
  template <class Cons>
  using Stage = ComposableUniversal<P, Spec, Cons, Cap>;

 public:
  explicit StandardChain(int n)
      : split_(n, Cap, "split/registers"),
        bakery_(n, Cap, "bakery/registers"),
        cas_(n, Cap, "cas/hardware"),
        chain_(n, split_, bakery_, cas_),
        minter_(n) {}

  // Mints a request for (op, arg) and returns its committed response.
  Response perform(typename P::Context& ctx, std::int64_t op,
                   std::int64_t arg = 0) {
    return chain_.perform(ctx, minter_.mint(ctx, op, arg)).response;
  }

 private:
  Stage<SplitConsensus<P>> split_;
  Stage<AbortableBakery<P>> bakery_;
  Stage<CasConsensus<P>> cas_;
  StaticAbstractChain<Stage<SplitConsensus<P>>, Stage<AbortableBakery<P>>,
                      Stage<CasConsensus<P>>>
      chain_;
  RequestMinter<P> minter_;
};

}  // namespace detail

// Wait-free linearizable fetch&increment counter (Proposition 1 + the
// conclusions' fetch-and-increment target).
template <class P, std::size_t Cap = 64>
class UniversalCounter {
 public:
  using Context = typename P::Context;

  explicit UniversalCounter(int num_processes) : chain_(num_processes) {}

  // Atomically returns the current value and increments it.
  [[nodiscard]] std::int64_t fetch_increment(Context& ctx) {
    return chain_.perform(ctx, CounterSpec::kFetchInc);
  }

  // Linearizable read.
  [[nodiscard]] std::int64_t read(Context& ctx) {
    return chain_.perform(ctx, CounterSpec::kRead);
  }

 private:
  detail::StandardChain<P, CounterSpec, Cap> chain_;
};

// Wait-free linearizable FIFO queue of int64 values (the conclusions'
// queue target).
template <class P, std::size_t Cap = 64>
class UniversalQueue {
 public:
  using Context = typename P::Context;
  static constexpr std::int64_t kEmpty = QueueSpec::kEmpty;

  explicit UniversalQueue(int num_processes) : chain_(num_processes) {}

  void enqueue(Context& ctx, std::int64_t value) {
    (void)chain_.perform(ctx, QueueSpec::kEnqueue, value);
  }

  // Returns the head, or kEmpty.
  [[nodiscard]] std::int64_t dequeue(Context& ctx) {
    return chain_.perform(ctx, QueueSpec::kDequeue);
  }

 private:
  detail::StandardChain<P, QueueSpec, Cap> chain_;
};

}  // namespace scm
