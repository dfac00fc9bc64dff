// Read-mostly replication: serve reads from versioned local replicas,
// pay the paper's composition price only on the write slice.
//
// The paper's per-operation costs (extra RMWs and steps per layer
// crossed) are unavoidable for operations that MUTATE the composed
// object; a read against a cached snapshot is two shared loads plus a
// generation check. Replicated<Obj, N, Model> keeps N cacheline-padded
// direct-mapped replica tables of {key, value, generation} entries,
// each entry guarded by a seqlock-style version word, plus one padded
// generation counter per entry slot (slot s of every replica shares
// generation s):
//
//   * placement: slot_of(key) XOR-folds the key's 64 bits into
//     log2(kEntries) bits, so any kEntries keys that differ only in
//     their low bits (a dense range, or a strided one once the high
//     bits fold in) get distinct slots. SLOT-MATES (equal slot_of)
//     evict each other and share an invalidation generation;
//   * reads classified read-only by the Model are served from the
//     caller's replica (process i reads replica i mod N) via a
//     generation-checked snapshot — no shared write; the only RMW is
//     a relaxed fetch_add on the replica's own hits counter. That is
//     what lets the read slice scale with cores while the write slice
//     tracks the wrapped object's curve;
//   * writes are funneled unchanged through the wrapped object's
//     submit() path (Combining's publication slots), and the
//     operation's completion callback performs invalidation + refill:
//     bump the written key's slot generation (one fetch_add — every
//     replica's entries in that slot miss from that point on, while
//     the other slots keep hitting), then reinstall the written key
//     odd→apply→even under the entry's seqlock;
//   * a cache-miss fill is just the read submitted through the object
//     with a fill callback — against a slow backend the ticket simply
//     completes late, exactly PR 5's "the caching layer must consume
//     Ticket<R>s" instruction;
//   * an async submission's callback state lives in a completion record
//     claimed from the caller's replica's own pool of kRecs records, so
//     a claim scans only lines its replica's callers and the releasing
//     combiners write — never every thread's in-flight records.
//
// Correctness (linearizable): a hit requires the entry's generation to
// EQUAL its slot's generation loaded at the start of the read — the
// read's linearization point. The wrapped object's completion
// callbacks fire at each operation's serialization point (Combining
// runs them under the election lock on every path), so one key's
// generations are assigned in linearization order: an entry matching
// the current generation holds exactly the value the object would
// return, and every committed write bumps its slot's generation before
// its publisher can return, so no later read can hit a pre-write
// entry. Keys that share a slot but are serialized by different locks
// (other shards of a Sharded<Combining>) only bump each other's
// generation: a generation never decreases, so the race costs a
// conservative miss, never a stale hit. Mixed histories are
// pinned by lincheck in caching_test, per key on a sharded stack with
// slot-mates on different shards. The entry seqlock makes torn values
// impossible.
//
// Backend requirements: the wrapped object must run completion
// callbacks at the serialization point (Combining, or
// Sharded<Combining> routed ByKeyHash so same-key operations share a
// shard — cross-key callback races only cause conservative misses).
// Objects without a callback-carrying submit (a bare pipeline) still
// compose — operations run through scm::apply with the callback fired
// inline — but then the ordering guarantee is the caller's problem
// (fine single-threaded, which is all such objects support anyway).
//
// Cached<Obj, Model> is the single-replica special case: one shared
// table, still seqlock-correct, for when the working set is hot reads
// on few cores.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/async.hpp"
#include "core/module.hpp"
#include "core/sharding.hpp"
#include "history/request.hpp"
#include "support/assert.hpp"
#include "support/cacheline.hpp"

namespace scm {

// A replication model tells the cache how to interpret a spec's
// requests: which ops are read-only (servable from a replica), which
// cache key a request touches, and — after a committed write — what a
// subsequent read of that key would return (std::nullopt when the
// write's effect on reads is not derivable from its response, in
// which case the cache invalidates without refilling).
template <class M>
concept ReplicationModel =
    requires(const Request& m, Response r) {
      { M::is_read(m) } -> std::convertible_to<bool>;
      { M::key(m) } -> std::convertible_to<std::uint64_t>;
      { M::read_after_write(m, r) } -> std::same_as<std::optional<Response>>;
    };

// Template parameters: kReplicas replica tables (caller i uses replica
// i mod kReplicas), kEntries direct-mapped slots per table (a power of
// two), and kRecs async completion records PER REPLICA — the bound on
// one replica's misses and writes in flight through submit() with a
// refill still pending (beyond it they degrade, see submit()).
template <class Obj, std::size_t kReplicas, class Model,
          std::size_t kEntries = 64, std::size_t kRecs = 32>
  requires ReplicationModel<Model>
class Replicated : public detail::ShardedConsensusBase<Obj>,
                   public detail::ShardedDepthBase<Obj> {
  static_assert(kReplicas >= 1, "a replicated cache needs a replica");
  static_assert(kEntries >= 1 && (kEntries & (kEntries - 1)) == 0,
                "the replica table's slot count must be a power of two");
  static_assert(kRecs >= 1, "the async completion pool needs a record");

 public:
  static constexpr std::size_t kReplicaCount = kReplicas;
  static constexpr std::size_t kEntryCount = kEntries;

  Replicated()
    requires std::is_default_constructible_v<Obj>
      : obj_{} {}

  template <class... Args>
  explicit Replicated(std::in_place_t, Args&&... args)
      : obj_(std::in_place, std::forward<Args>(args)...) {}

  Replicated(const Replicated&) = delete;
  Replicated& operator=(const Replicated&) = delete;

  // Every async completion record must have been released by its
  // callback before the cache goes away — an outstanding record means
  // an operation is still in flight inside the wrapped object and its
  // callback is about to write freed memory. Collect or drop all
  // tickets (a dropped ticket waits its operation out) first.
  ~Replicated() {
    for (const auto& r : replicas_) {
      for (const auto& p : r.recs) {
        SCM_CHECK_MSG(p.value.busy.load(std::memory_order_acquire) == 0,
                      "Replicated destroyed with an in-flight completion "
                      "record (outstanding submission)");
      }
    }
  }

  // Module surface: reads hit the caller's replica when fresh enough,
  // everything else — misses, writes, initialized (switch-carrying)
  // requests — runs through the wrapped object with the appropriate
  // completion callback. The callback completes before the wrapped
  // object hands the result back (Combining fires it before kDone),
  // so a stack record suffices here.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    const std::size_t rep = replica_of(ctx);
    if (Model::is_read(m) && !init.has_value()) {
      if (const auto v = try_read(ctx, rep, key_of(m))) {
        return ModuleResult::commit(*v);
      }
      CacheRec rec(this, rep, m, /*pooled=*/false);
      return run_through(ctx, m, init, &Replicated::fill_cb, &rec);
    }
    CacheRec rec(this, rep, m, /*pooled=*/false);
    return run_through(ctx, m, init, &Replicated::write_cb, &rec);
  }

  // Async surface: a read hit is a ready ticket (it cost no shared
  // write, there is nothing to wait for); a miss or write is the
  // wrapped object's own submission with a completion record, claimed
  // from the caller's replica's pool, carrying the invalidation/refill.
  // When that pool is exhausted the operation still proceeds — a miss
  // just skips its fill, a write falls back to invalidate-only (the
  // key's slot generation is the cookie; correctness never depends on
  // refills, they only raise the hit rate). Another replica's free
  // records are never borrowed.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  Ticket<ModuleResult> submit(Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init = std::nullopt) {
    const std::size_t rep = replica_of(ctx);
    if (Model::is_read(m) && !init.has_value()) {
      if (const auto v = try_read(ctx, rep, key_of(m))) {
        return Ticket<ModuleResult>::ready(ModuleResult::commit(*v));
      }
      if (CacheRec* rec = claim_rec(rep, m)) {
        return submit_through(ctx, m, init, &Replicated::fill_cb, rec);
      }
      return submit_through(ctx, m, init, nullptr, nullptr);
    }
    if (CacheRec* rec = claim_rec(rep, m)) {
      return submit_through(ctx, m, init, &Replicated::write_cb, rec);
    }
    return submit_through(ctx, m, init, &Replicated::invalidate_cb,
                          &generation(key_of(m)));
  }

  // Probe a replica's table directly — no fill, no traffic to the
  // wrapped object. Tests and scenarios use this to check that a
  // committed write is (in)visible on every replica.
  [[nodiscard]] std::optional<Response> read_at(std::size_t replica,
                                                std::uint64_t key) {
    SCM_CHECK(replica < kReplicas);
    return snapshot(replicas_[replica], key,
                    generation(key).load(std::memory_order_seq_cst))
        .value;
  }

  // The direct-mapped entry slot — and with it the invalidation
  // generation — that `key` uses in every replica: the key's 64 bits
  // XOR-folded down to log2(kEntries) bits. Slot-mates evict and
  // invalidate each other; other keys are independent.
  [[nodiscard]] static constexpr std::size_t slot_of(
      std::uint64_t key) noexcept {
    constexpr unsigned kBits = std::bit_width(kEntries) - 1;
    if constexpr (kBits == 0) {
      return 0;
    } else {
      std::uint64_t folded = 0;
      for (unsigned shift = 0; shift < 64; shift += kBits) {
        folded ^= key >> shift;
      }
      return static_cast<std::size_t>(folded & (kEntries - 1));
    }
  }

  // One slot-generation bump per completed write: the sum over slots is
  // the number of invalidations performed.
  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    std::uint64_t total = 0;
    for (const auto& g : generations_) {
      total += g.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  // ---- cache telemetry (relaxed, aggregated over replicas).
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return sum(&Replica::hits);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return sum(&Replica::misses);
  }
  // Reads abandoned because an installer held the entry's seqlock odd
  // (or moved it) mid-read — each one became a miss, never a torn
  // value. Only the read path counts them; read_at probes do not.
  [[nodiscard]] std::uint64_t torn_retries() const noexcept {
    return sum(&Replica::torn);
  }
  [[nodiscard]] std::uint64_t fills() const noexcept {
    return sum(&Replica::fills);
  }

  [[nodiscard]] Obj& object() noexcept { return obj_.value; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_.value; }

  // ---- forwarded surfaces (enabled exactly when Obj provides them).

  template <class Ctx>
  void drain(Ctx& ctx)
    requires requires(Obj& o) { o.drain(ctx); }
  {
    obj_.value.drain(ctx);
  }

  [[nodiscard]] PipelineStageStats stats(std::size_t i) const
    requires requires(const Obj& o, std::size_t j) {
      { o.stats(j) } -> std::same_as<PipelineStageStats>;
    }
  {
    return obj_.value.stats(i);
  }

  void reset_stats() noexcept
    requires requires(Obj& o) { o.reset_stats(); }
  {
    obj_.value.reset_stats();
  }

  [[nodiscard]] std::uint64_t commits_by(ProcessId pid, std::size_t i) const
    requires requires(const Obj& o, std::size_t j) { o.commits_by(pid, j); }
  {
    return obj_.value.commits_by(pid, i);
  }

  // Replication adds only registers (the seqlock words and the slot
  // generations), so the composition's consensus power is the wrapped
  // object's.
  [[nodiscard]] int consensus_number() const
    requires requires(const Obj& o) { o.consensus_number(); }
  {
    return obj_.value.consensus_number();
  }

 private:
  // Completion-callback state for one in-flight operation: which
  // replica to refill and the request whose key/effect the refill
  // concerns. Stack-allocated on blocking paths (the callback runs
  // before the wrapped object hands the result back); pool-claimed on
  // async paths, released by the callback.
  struct CacheRec {
    CacheRec() = default;
    CacheRec(Replicated* s, std::size_t r, const Request& m, bool p)
        : self(s), replica(r), req(m), pooled(p) {}

    Replicated* self = nullptr;
    std::size_t replica = 0;
    Request req;
    bool pooled = false;
    std::atomic<std::uint32_t> busy{0};

    void release() noexcept {
      if (pooled) busy.store(0, std::memory_order_release);
    }
  };

  // One direct-mapped cache entry. The seqlock protocol: installers
  // CAS the version word even→odd (mutual exclusion between
  // installers; a loser skips its install — refills are best-effort),
  // write the fields, then release-store even+2. Readers snapshot the
  // word, read the fields, and re-check the word: any concurrent
  // install is detected and the read becomes a miss. Fields are
  // relaxed atomics, not plain loads — a reader may race an installer
  // by design, and the seqlock re-check is what discards those reads.
  struct Entry {
    std::atomic<std::uint64_t> ver{0};
    std::atomic<std::uint64_t> key1{0};  // key + 1; 0 = empty
    std::atomic<Response> val{0};
    std::atomic<std::uint64_t> gen{0};
  };

  struct alignas(kCacheLineSize) Replica {
    std::array<Entry, kEntries> entries{};
    // Telemetry lives with its replica: a caller bumps counters on
    // lines it already owns.
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> fills{0};
    // The replica's async completion records, each on its own line:
    // claimed by this replica's callers, released by whichever thread
    // finalizes the operation.
    std::array<Padded<CacheRec>, kRecs> recs{};
  };

  // What one snapshot saw: the value on a hit; `torn` when the entry's
  // seqlock was odd or moved under the read.
  struct Snapshot {
    std::optional<Response> value;
    bool torn = false;
  };

  template <class Ctx>
  static std::size_t replica_of(Ctx& ctx) noexcept {
    return static_cast<std::size_t>(ctx.id()) % kReplicas;
  }

  [[nodiscard]] static std::uint64_t key_of(const Request& m) {
    return static_cast<std::uint64_t>(Model::key(m));
  }

  // The generation guarding `key`'s entry slot in every replica.
  [[nodiscard]] std::atomic<std::uint64_t>& generation(
      std::uint64_t key) noexcept {
    return generations_[slot_of(key)].value;
  }

  // The version-checked snapshot shared by the hot read path and the
  // read_at probe: returns the entry's value iff the seqlock snapshot
  // is consistent, the key matches, and the tagged generation equals
  // `cur`. No counters — callers attribute hits, misses and torn reads
  // themselves.
  Snapshot snapshot(Replica& rep, std::uint64_t key, std::uint64_t cur) {
    Entry& e = rep.entries[slot_of(key)];
    const std::uint64_t v1 = e.ver.load(std::memory_order_acquire);
    if ((v1 & 1) != 0) return {std::nullopt, /*torn=*/true};
    const std::uint64_t k1 = e.key1.load(std::memory_order_relaxed);
    const Response val = e.val.load(std::memory_order_relaxed);
    const std::uint64_t g = e.gen.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (e.ver.load(std::memory_order_relaxed) != v1) {
      return {std::nullopt, /*torn=*/true};
    }
    // g > cur: installed after this read's linearization point —
    // serving it would claim the future. g < cur: a write to the slot
    // committed since the install. Both are misses.
    if (k1 != key + 1 || g != cur) return {};
    return {val, /*torn=*/false};
  }

  // The hot read path: one seq_cst load of the key's slot generation
  // (the linearization point of a hit) plus the entry snapshot. Counted
  // as two reads — the generation and the entry are the operation's
  // real shared traffic; the hit/miss counter bump is a relaxed RMW on
  // the caller's own replica line.
  template <class Ctx>
  std::optional<Response> try_read(Ctx& ctx, std::size_t rep,
                                   std::uint64_t key) {
    ctx.on_read();
    const std::uint64_t cur = generation(key).load(std::memory_order_seq_cst);
    ctx.on_read();
    Replica& r = replicas_[rep];
    const Snapshot s = snapshot(r, key, cur);
    if (s.torn) r.torn.fetch_add(1, std::memory_order_relaxed);
    (s.value.has_value() ? r.hits : r.misses)
        .fetch_add(1, std::memory_order_relaxed);
    return s.value;
  }

  // Best-effort install of (key, val) tagged with generation g. The
  // even→odd CAS excludes concurrent installers (from differently-
  // locked backends, e.g. other shards of a Sharded<Combining>); a
  // lost race abandons the install — the entry's owner wins, later
  // reads of our key simply miss and refill.
  void install(std::size_t rep, std::uint64_t key, Response val,
               std::uint64_t g) {
    Entry& e = replicas_[rep].entries[slot_of(key)];
    std::uint64_t v = e.ver.load(std::memory_order_relaxed);
    if ((v & 1) != 0) return;
    if (!e.ver.compare_exchange_strong(v, v + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;
    }
    e.key1.store(key + 1, std::memory_order_relaxed);
    e.val.store(val, std::memory_order_relaxed);
    e.gen.store(g, std::memory_order_relaxed);
    e.ver.store(v + 2, std::memory_order_release);
    replicas_[rep].fills.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- completion callbacks (run by the wrapped object's finalizing
  // thread at the operation's serialization point — under Combining's
  // election lock; they must not re-enter the wrapped object, and they
  // don't: slot generations + entry seqlocks only).

  // A committed read's response is the object's value for that key at
  // this serialization point; tag it with the slot generation as of
  // NOW. Same-key callbacks fire in linearization order, so every
  // earlier write's bump is included and no later one; a slot-mate's
  // concurrent bump can only push the tag below a later read's load.
  static void fill_cb(void* user, const ModuleResult& r) {
    auto* rec = static_cast<CacheRec*>(user);
    if (r.committed()) {
      Replicated* self = rec->self;
      const std::uint64_t key = key_of(rec->req);
      self->install(rec->replica, key, r.response,
                    self->generation(key).load(std::memory_order_seq_cst));
    }
    rec->release();
  }

  // A write bumps its key's slot generation FIRST (from this instant
  // every replica's pre-write entries in that slot miss), then — when
  // the model can derive the post-write value — reinstalls the written
  // key into the writer's replica tagged with the new generation.
  // Aborted results bump too: a spurious invalidation is a missed hit,
  // never an error.
  static void write_cb(void* user, const ModuleResult& r) {
    auto* rec = static_cast<CacheRec*>(user);
    Replicated* self = rec->self;
    const std::uint64_t key = key_of(rec->req);
    const std::uint64_t g =
        self->generation(key).fetch_add(1, std::memory_order_seq_cst) + 1;
    if (r.committed()) {
      if (const auto v = Model::read_after_write(rec->req, r.response)) {
        self->install(rec->replica, key, *v, g);
      }
    }
    rec->release();
  }

  // Pool-exhaustion fallback for async writes: invalidate without
  // refilling (no per-op state needed — the cookie is the written
  // key's slot generation).
  static void invalidate_cb(void* user, const ModuleResult&) {
    static_cast<std::atomic<std::uint64_t>*>(user)->fetch_add(
        1, std::memory_order_seq_cst);
  }

  // ---- routing operations through the wrapped object. Callback-
  // carrying submit when the object has one (Combining and wrappers
  // thereof: the callback fires at the serialization point), inline
  // apply + callback otherwise.

  template <class Ctx>
  ModuleResult run_through(Ctx& ctx, const Request& m,
                           std::optional<SwitchValue> init, CompletionFn cb,
                           void* user) {
    if constexpr (requires(Obj& o) { o.submit(ctx, m, init, cb, user); }) {
      return obj_.value.submit(ctx, m, init, cb, user).wait();
    } else {
      const ModuleResult r = scm::apply(obj_.value, ctx, m, init);
      if (cb != nullptr) cb(user, r);
      return r;
    }
  }

  template <class Ctx>
  Ticket<ModuleResult> submit_through(Ctx& ctx, const Request& m,
                                      std::optional<SwitchValue> init,
                                      CompletionFn cb, void* user) {
    if constexpr (requires(Obj& o) { o.submit(ctx, m, init, cb, user); }) {
      return obj_.value.submit(ctx, m, init, cb, user);
    } else {
      const ModuleResult r = scm::apply(obj_.value, ctx, m, init);
      if (cb != nullptr) cb(user, r);
      return Ticket<ModuleResult>::ready(r);
    }
  }

  // Claims an async completion record from `replica`'s own pool (a
  // CAS-scan over its kRecs records; callers whose ids collide modulo
  // kReplicas share the pool through the same CAS); nullptr when every
  // record is in flight — callers degrade to the stateless callback,
  // they never block on the pool.
  CacheRec* claim_rec(std::size_t replica, const Request& m) {
    for (auto& p : replicas_[replica].recs) {
      CacheRec& rec = p.value;
      std::uint32_t expected = 0;
      if (rec.busy.load(std::memory_order_relaxed) == 0 &&
          rec.busy.compare_exchange_strong(expected, 1,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
        rec.self = this;
        rec.replica = replica;
        rec.req = m;
        rec.pooled = true;
        return &rec;
      }
    }
    return nullptr;
  }

  [[nodiscard]] std::uint64_t sum(
      std::atomic<std::uint64_t> Replica::* field) const noexcept {
    std::uint64_t total = 0;
    for (const auto& r : replicas_) {
      total += (r.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  std::array<Replica, kReplicas> replicas_{};
  std::array<Padded<std::atomic<std::uint64_t>>, kEntries> generations_{};
  Padded<Obj> obj_;
};

// The single-replica special case: one shared table — the right shape
// when everything runs on few cores or the replicas would all be
// filled with the same hot keys anyway.
template <class Obj, class Model, std::size_t kEntries = 64,
          std::size_t kRecs = 32>
using Cached = Replicated<Obj, 1, Model, kEntries, kRecs>;

}  // namespace scm
