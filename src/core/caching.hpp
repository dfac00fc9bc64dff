// Read-mostly replication: serve reads from versioned local replicas,
// pay the paper's composition price only on the write slice.
//
// The paper's per-operation costs (extra RMWs and steps per layer
// crossed) are unavoidable for operations that MUTATE the composed
// object; a read against a cached snapshot is two shared loads plus a
// generation check. Replicated<Obj, N, Model> keeps N cacheline-padded
// direct-mapped replica tables of {key, value, generation} entries,
// each entry guarded by a seqlock-style version word, plus one SLOT
// LINE per entry slot, shared by that slot of every replica: the
// slot's invalidation generation and `last`, an entry of the same
// shape holding what the last write to the slot installed:
//
//   * placement: slot_of(key) XOR-folds the key's 64 bits into
//     log2(kEntries) bits, so any kEntries keys that differ only in
//     their low bits (a dense range, or a strided one once the high
//     bits fold in) get distinct slots. SLOT-MATES (equal slot_of)
//     evict each other and share a slot line;
//   * reads classified read-only by the Model are served from the
//     caller's replica (process i reads replica i mod N) via a
//     generation-checked snapshot — no shared write and no RMW: the
//     hit is counted by a load and a store on the calling thread's own
//     tally cell (support/tally.hpp). That is
//     what lets the read slice scale with cores while the write slice
//     tracks the wrapped object's curve. A replica miss snapshots the
//     slot line's `last` — on the line the read just loaded its
//     generation from — and on a hit refills the caller's replica;
//     only a true miss goes to the wrapped object;
//   * writes are funneled unchanged through the wrapped object's
//     submit() path (Combining's publication slots), and the
//     operation's completion callback bumps the written key's slot
//     generation (one fetch_add — every replica's entries in that
//     slot miss from that point on, while the other slots keep
//     hitting), then installs the written key into `last` under its
//     seqlock, on the line the fetch_add already owns. No replica is
//     written: `last` serves the new value to all of them;
//   * a cache-miss fill is just the read submitted through the object
//     with a fill callback that installs into the caller's replica —
//     against a slow backend the ticket simply completes late;
//   * a completion callback keeps no per-operation state: the wrapped
//     object hands it the request it completes, its cookie is the
//     cache itself, and a fill knows its replica because each replica
//     has its own fill callback. Every async miss and write therefore
//     carries its callback, however many are in flight;
//   * a read that carries a switch value is not served from, and does
//     not touch, the cache: it runs through the wrapped object with no
//     callback;
//   * a reuse gate keeps a thread whose reads do not hit from paying
//     for the cache. A thread's window closes at its first miss after
//     kGateWindow probed reads (reads that looked in the cache); if
//     fewer than 1 in kGateSample of them hit, the thread enters
//     bypass (or stays in it), else it leaves it. In bypass,
//     kGateSample - 1 of every kGateSample reads skip the probe and run
//     through the wrapped object with no fill callback, counted as
//     misses and in bypassed(); the remaining one probes and fills as
//     usual, so a thread whose keys come back into reuse leaves bypass
//     when its window closes. The gate's state lives in the thread's
//     own tally cell, beside its counts, and a hit only reads it: a
//     thread without a cell of its own, and every awaitable
//     (simulated) context, never bypasses.
//
// Correctness (linearizable): a hit requires the entry's generation to
// EQUAL its slot's generation loaded at the start of the read — the
// read's linearization point — whether the entry is the replica's or
// the slot line's `last`. The wrapped object's completion callbacks
// fire at each operation's serialization point (Combining runs them
// under the election lock on every path), so one key's generations
// are assigned in linearization order and each (value, generation)
// pair is taken at one: an entry matching the current generation
// holds exactly the value the object would return, and every committed
// write bumps its slot's generation before its publisher can return,
// so no later read can hit a pre-write entry. A `last` hit refilled
// into a replica keeps its tag, so it makes the same claim there. Keys
// that share a slot but are serialized by different locks (other
// shards of a Sharded<Combining>) only bump each other's generation
// and race on `last`'s seqlock: a generation never decreases and an
// installer that loses the seqlock skips its install, so the race
// costs a conservative miss, never a stale hit. Mixed histories are
// pinned by lincheck in caching_test, per key on a sharded stack with
// slot-mates on different shards. The entry seqlock makes torn values
// impossible. A bypassed read is an ordinary call through the wrapped
// object, and a skipped fill only costs a later miss.
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
#include "runtime/wait.hpp"
#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "support/tally.hpp"

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
// i mod kReplicas) and kEntries direct-mapped slots per table (a power
// of two). Replication adds only registers (the seqlock words and the
// slot lines), so the composition's consensus number is the wrapped
// object's.
template <class Obj, std::size_t kReplicas, class Model,
          std::size_t kEntries = 64>
  requires ReplicationModel<Model>
class Replicated : public detail::ShardedConsensusBase<Obj>,
                   public detail::ShardedDepthBase<Obj> {
  static_assert(kReplicas >= 1, "a replicated cache needs a replica");
  static_assert(kEntries >= 1 && (kEntries & (kEntries - 1)) == 0,
                "the replica table's slot count must be a power of two");

 public:
  static constexpr std::size_t kReplicaCount = kReplicas;
  static constexpr std::size_t kEntryCount = kEntries;
  // The reuse gate's window, in probed reads, and its sample: a window
  // whose probed reads hit less than 1 time in kGateSample puts the
  // thread in bypass, where it probes one read in kGateSample.
  static constexpr std::uint64_t kGateWindow = 256;
  static constexpr std::uint64_t kGateSample = 16;

  Replicated()
    requires std::is_default_constructible_v<Obj>
      : obj_{} {}

  template <class... Args>
  explicit Replicated(std::in_place_t, Args&&... args)
      : obj_(std::in_place, std::forward<Args>(args)...) {}

  Replicated(const Replicated&) = delete;
  Replicated& operator=(const Replicated&) = delete;

  // Module surface: reads hit the caller's replica or the slot line
  // when fresh enough; misses and writes run through the wrapped object
  // with a fill or write completion callback; a read that carries a
  // switch value runs through it with none.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    const std::size_t rep = replica_of(ctx);
    if (!Model::is_read(m)) {
      return submit_through(ctx, m, init, &Replicated::write_cb).wait();
    }
    if (init.has_value()) return submit_through(ctx, m, init, nullptr).wait();
    CompletionFn fill = nullptr;
    if (Response v; read(ctx, rep, key_of(m), v, fill)) {
      return ModuleResult::commit(v);
    }
    return submit_through(ctx, m, init, fill).wait();
  }

  // Async surface: a read hit is a ready ticket (it cost no shared
  // write, there is nothing to wait for); a miss or write is the
  // wrapped object's own submission, carrying the fill (none for a
  // bypassed read) or the install as its completion callback, which
  // carries no per-operation state, so any number may be in flight.
  // Destroying the cache with a ticket outstanding is the wrapped
  // object's checked error (Combining's occupied-slot assertion):
  // collect or drop every ticket first.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  Ticket<ModuleResult> submit(Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init = std::nullopt) {
    const std::size_t rep = replica_of(ctx);
    if (!Model::is_read(m)) {
      return submit_through(ctx, m, init, &Replicated::write_cb);
    }
    if (init.has_value()) return submit_through(ctx, m, init, nullptr);
    CompletionFn fill = nullptr;
    if (Response v; read(ctx, rep, key_of(m), v, fill)) {
      return Ticket<ModuleResult>::ready(ModuleResult::commit(v));
    }
    return submit_through(ctx, m, init, fill);
  }

  // What a read of `key` on `replica` would be served without going
  // to the wrapped object — the replica's entry, else the key's slot
  // line — with no fill and no counter bump. Tests use this to check
  // that a committed write is (in)visible on every replica.
  [[nodiscard]] std::optional<Response> read_at(std::size_t replica,
                                                std::uint64_t key) {
    SCM_CHECK(replica < kReplicas);
    SlotLine& line = line_of(key);
    // scm-lint: coarse (test probe: counts nothing)
    const std::uint64_t cur = line.gen.load(std::memory_order_seq_cst);
    const Entry& e = replicas_[replica].entries[slot_of(key)];
    if (const auto v = snapshot(e, key, cur).value) {
      return v;
    }
    return snapshot(line.last, key, cur).value;
  }

  // The direct-mapped entry slot — and with it the slot line — that
  // `key` uses in every replica: the key's 64 bits XOR-folded down to
  // log2(kEntries) bits. Slot-mates evict and
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
    for (const SlotLine& l : lines_) {
      // scm-lint: coarse (telemetry)
      total += l.gen.load(std::memory_order_relaxed);
    }
    return total;
  }

  // ---- cache telemetry (a Tally: per-thread cells, summed here). A
  // read served by the slot line is a hit; a miss went to the wrapped
  // object, bypassed or not: hits() + misses() is every read without a
  // switch value.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return tally_.sum(kHits);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return tally_.sum(kMisses);
  }
  // Snapshots abandoned because an installer held the entry's seqlock
  // odd (or moved it) mid-read, the replica's or the slot line's: each
  // one fell through to the next source, never to a torn value. Only
  // the read path counts them; read_at probes do not.
  [[nodiscard]] std::uint64_t torn_retries() const noexcept {
    return tally_.sum(kTorn);
  }
  // The torn_retries() on a slot line's `last`: the read's last source,
  // so each one ended the read as a miss.
  [[nodiscard]] std::uint64_t torn_misses() const noexcept {
    return tally_.sum(kTornMisses);
  }
  // Installs: into a replica (a probed miss's fill, a slot-line hit's
  // refill) or into a slot line (a write).
  [[nodiscard]] std::uint64_t fills() const noexcept {
    return tally_.sum(kFills);
  }
  // Misses the reuse gate sent to the wrapped object without a probe
  // or a fill.
  [[nodiscard]] std::uint64_t bypassed() const noexcept {
    return tally_.sum(kBypassed);
  }

  [[nodiscard]] Obj& object() noexcept { return obj_.value; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_.value; }

 private:
  // One direct-mapped cache entry. The seqlock protocol: installers
  // CAS the version word even→odd (mutual exclusion between
  // installers; a loser skips its install — refills are best-effort),
  // release-store the fields, then release-store even+2. Readers
  // acquire-load the word, then the fields, and re-check the word: a
  // field an installer stored carries that installer's odd CAS with it,
  // so the re-check sees the word moved and the read becomes a miss.
  // Fields are atomics, not plain loads — a reader may race an
  // installer by design, and the re-check is what discards those
  // reads. On x86 every one of these loads and stores is a plain mov.
  struct Entry {
    std::atomic<std::uint64_t> ver{0};
    std::atomic<std::uint64_t> key1{0};  // key + 1; 0 = empty
    std::atomic<Response> val{0};
    std::atomic<std::uint64_t> gen{0};
  };

  // Slot s's line, shared by slot s of every replica: its invalidation
  // generation and the entry the last write to the slot installed
  // (tagged with the generation that write bumped to). Writers own the
  // line after their fetch_add on `gen`, so the install costs no
  // further cross-core traffic; a reader that misses in its replica
  // finds `last` on the line it just loaded.
  struct alignas(kCacheLineSize) SlotLine {
    std::atomic<std::uint64_t> gen{0};
    Entry last;
  };
  static_assert(sizeof(SlotLine) == kCacheLineSize);

  struct alignas(kCacheLineSize) Replica {
    std::array<Entry, kEntries> entries{};
  };

  // The tally's fields: the counts, then the calling thread's reuse
  // gate (0 while it probes every read, else the reads left until its
  // next probe) and the window's start (its hit count in the low 32
  // bits, its probed-read count in the high 32).
  enum : std::size_t {
    kHits,
    kMisses,
    kTorn,
    kTornMisses,
    kFills,
    kBypassed,
    kGate,
    kGateMark,
    kTallyFields
  };
  using Counts = typename Tally<kTallyFields>::Counts;
  // A hit reads the gate on the line it counts on.
  static_assert(sizeof(Counts) <= kCacheLineSize);

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

  // The line guarding `key`'s entry slot in every replica.
  [[nodiscard]] SlotLine& line_of(std::uint64_t key) noexcept {
    return lines_[slot_of(key)];
  }

  // The version-checked snapshot shared by the read path and the
  // read_at probe, for a replica entry or a slot line's `last`: returns
  // the entry's value iff the seqlock snapshot is consistent, the key
  // matches, and the tagged generation equals `cur`. No counters —
  // callers attribute hits, misses and torn reads themselves.
  [[gnu::always_inline]] static Snapshot snapshot(const Entry& e,
                                                  std::uint64_t key,
                                                  std::uint64_t cur) {
    // scm-lint: coarse (the seqlock payload a counted read reads)
    const std::uint64_t v1 = e.ver.load(std::memory_order_acquire);
    if ((v1 & 1) != 0) return {std::nullopt, /*torn=*/true};
    // scm-lint: coarse (seqlock payload)
    const std::uint64_t k1 = e.key1.load(std::memory_order_acquire);
    // scm-lint: coarse (seqlock payload)
    const Response val = e.val.load(std::memory_order_acquire);
    // scm-lint: coarse (seqlock payload)
    const std::uint64_t g = e.gen.load(std::memory_order_acquire);
    // scm-lint: coarse (seqlock payload)
    if (e.ver.load(std::memory_order_relaxed) != v1) {
      return {std::nullopt, /*torn=*/true};
    }
    // g > cur: installed after this read's linearization point —
    // serving it would claim the future. g < cur: a write to the slot
    // committed since the install. Both are misses.
    if (k1 != key + 1 || g != cur) return {};
    return {val, /*torn=*/false};
  }

  // Where a read goes: true when the cache served it into `out`;
  // otherwise `fill` is the completion callback its call through the
  // wrapped object carries — replica rep's fill after a probed miss,
  // none for a read the reuse gate bypassed. Native contexts count
  // through the thread's own cell, found once per read, which also
  // holds its gate: a hit pays one more load and branch for the gate.
  template <class Ctx>
  [[gnu::always_inline]] bool read(Ctx& ctx, std::size_t rep,
                                   std::uint64_t key, Response& out,
                                   CompletionFn& fill) {
    if constexpr (!detail::context_can_await_v<Ctx>) {
      if (Counts* const c = tally_.own()) [[likely]] {
        // scm-lint: coarse (the thread's own tally cell)
        if ((*c)[kGate].load(std::memory_order_relaxed) != 0 &&
            bypass(*c)) [[unlikely]] {
          fill = nullptr;
          return false;
        }
        if (try_read(ctx, rep, key, out, c)) return true;
        note_miss(*c, bump((*c)[kMisses], 1));
        fill = fill_cb_for(rep);
        return false;
      }
    }
    fill = fill_cb_for(rep);
    return read_through_tally(ctx, rep, key, out);
  }

  // A read without a gate: counted through Tally::add (a thread
  // without a cell yet or of its own; an awaitable context).
  template <class Ctx>
  [[gnu::noinline]] bool read_through_tally(Ctx& ctx, std::size_t rep,
                                            std::uint64_t key,
                                            Response& out) {
    if (try_read(ctx, rep, key, out, nullptr)) return true;
    tally_.add(kMisses);
    return false;
  }

  // A read while the gate is in bypass: the one in kGateSample that
  // probes returns false and goes on as usual; the others are counted
  // as bypassed misses and return true.
  [[gnu::noinline]] static bool bypass(Counts& c) noexcept {
    // scm-lint: coarse (the thread's own tally cell)
    const std::uint64_t left = c[kGate].load(std::memory_order_relaxed) - 1;
    if (left == 0) {
      // scm-lint: coarse (tally cell)
      c[kGate].store(kGateSample, std::memory_order_relaxed);
      return false;
    }
    // scm-lint: coarse (tally cell)
    c[kGate].store(left, std::memory_order_relaxed);
    bump(c[kBypassed], 1);
    note_miss(c, bump(c[kMisses], 1));
    return true;
  }

  // A miss of the calling thread, `misses` being its count after this
  // one: closes the gate's window once it holds kGateWindow probed
  // reads (hits plus misses, less the bypassed ones).
  [[gnu::always_inline]] static void note_miss(Counts& c,
                                               std::uint64_t misses) noexcept {
    // scm-lint: coarse (the thread's own tally cell)
    const std::uint64_t hits = c[kHits].load(std::memory_order_relaxed);
    const std::uint64_t probed =
        // scm-lint: coarse (tally cell)
        hits + misses - c[kBypassed].load(std::memory_order_relaxed);
    // scm-lint: coarse (tally cell)
    const std::uint64_t mark = c[kGateMark].load(std::memory_order_relaxed);
    const auto in_window = static_cast<std::uint32_t>(probed - (mark >> 32));
    if (in_window >= kGateWindow) [[unlikely]] {
      close_window(c, hits, probed, mark);
    }
  }

  // The window's counts are taken mod 2^32: a window is far shorter.
  // Fewer than 1 hit in kGateSample probed reads: bypass.
  [[gnu::noinline]] static void close_window(Counts& c, std::uint64_t hits,
                                             std::uint64_t probed,
                                             std::uint64_t mark) noexcept {
    const std::uint32_t h = static_cast<std::uint32_t>(hits - mark);
    const std::uint32_t p = static_cast<std::uint32_t>(probed - (mark >> 32));
    // scm-lint: coarse (the thread's own tally cell)
    c[kGateMark].store((probed << 32) | static_cast<std::uint32_t>(hits),
                       std::memory_order_relaxed);
    const bool cold = std::uint64_t{h} * kGateSample < p;
    // scm-lint: coarse (tally cell)
    const std::uint64_t gate = c[kGate].load(std::memory_order_relaxed);
    if (cold != (gate != 0)) {
      // scm-lint: coarse (tally cell)
      c[kGate].store(cold ? kGateSample : 0, std::memory_order_relaxed);
    }
  }

  // The probe: one seq_cst load of the key's slot generation (the
  // linearization point of a hit) plus the replica entry snapshot.
  // Counted as two reads — the generation and the entry are the
  // operation's real shared traffic; the hit count is a load and a
  // store on the calling thread's own cell `c` (found by Tally::add
  // when null), no RMW. A replica miss goes on to the slot line (a
  // third counted read), out of line so the hit path stays this short;
  // the caller counts the miss. Forced inline, with the value handed
  // back through `out`: called out of line, or merging the two paths'
  // optionals, the hit path spilled its result to the stack.
  template <class Ctx>
  [[gnu::always_inline]] bool try_read(Ctx& ctx, std::size_t rep,
                                       std::uint64_t key, Response& out,
                                       Counts* c) {
    SlotLine& line = line_of(key);
    const std::uint64_t cur = ctx.load(line.gen, std::memory_order_seq_cst);
    Replica& r = replicas_[rep];
    const Snapshot s = snapshot(ctx.read(r.entries[slot_of(key)]), key, cur);
    if (s.value.has_value()) {
      count(c, kHits);
      out = *s.value;
      return true;
    }
    if (s.torn) count(c, kTorn);
    return read_line(r, ctx.read(line), key, cur, out, c);
  }

  // A replica miss: serve the slot line's `last` into `out` if the last
  // write to the slot wrote this key and nothing has bumped the slot
  // since `cur`, and refill the caller's replica with it (tagged `cur`,
  // the same claim `last` makes); otherwise the read is a true miss and
  // goes to the wrapped object.
  [[gnu::noinline]] bool read_line(Replica& r, SlotLine& line,
                                   std::uint64_t key, std::uint64_t cur,
                                   Response& out, Counts* c) {
    const Snapshot s = snapshot(line.last, key, cur);
    if (!s.value.has_value()) {
      if (s.torn) {
        count(c, kTorn);
        count(c, kTornMisses);
      }
      return false;
    }
    if (install(r.entries[slot_of(key)], key, *s.value, cur)) {
      count(c, kFills);
    }
    count(c, kHits);
    out = *s.value;
    return true;
  }

  // One more in `field`: a bump of the calling thread's own cell `c`,
  // or Tally::add when the read has none.
  [[gnu::always_inline]] void count(Counts* c, std::size_t field) noexcept {
    if (c != nullptr) {
      bump((*c)[field], 1);
    } else {
      tally_.add(field);
    }
  }

  // Best-effort install of (key, val) tagged with generation g into
  // `e`; returns whether it installed. The even→odd CAS excludes
  // concurrent installers (from differently-locked backends, e.g.
  // other shards of a Sharded<Combining>); a lost race abandons the
  // install — the entry's owner wins, later reads of our key simply
  // miss and refill.
  static bool install(Entry& e, std::uint64_t key, Response val,
                      std::uint64_t g) {
    // scm-lint: coarse (install)
    std::uint64_t v = e.ver.load(std::memory_order_relaxed);
    if ((v & 1) != 0) return false;
    // scm-lint: coarse (install)
    if (!e.ver.compare_exchange_strong(v, v + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return false;
    }
    // scm-lint: coarse (install)
    e.key1.store(key + 1, std::memory_order_release);
    // scm-lint: coarse (install)
    e.val.store(val, std::memory_order_release);
    // scm-lint: coarse (install)
    e.gen.store(g, std::memory_order_release);
    // scm-lint: coarse (install)
    e.ver.store(v + 2, std::memory_order_release);
    return true;
  }

  // install(), counted in fills() when it installed.
  void install_counted(Entry& e, std::uint64_t key, Response val,
                       std::uint64_t g) {
    if (install(e, key, val, g)) tally_.add(kFills);
  }

  // ---- completion callbacks (run by the wrapped object's finalizing
  // thread at the operation's serialization point — under Combining's
  // election lock; they must not re-enter the wrapped object, and they
  // don't: slot lines + entry seqlocks only). The cookie is the cache;
  // the request is the one the callback completes.

  // A committed read's response is the object's value for that key at
  // this serialization point; tag it with the slot generation as of
  // NOW and install it into replica kRep. Same-key callbacks fire in
  // linearization order, so every earlier write's bump is included and
  // no later one; a slot-mate's concurrent bump can only push the tag
  // below a later read's load.
  template <std::size_t kRep>
  static void fill_cb(void* user, const Request& m, const ModuleResult& r) {
    if (!r.committed()) return;
    auto* self = static_cast<Replicated*>(user);
    const std::uint64_t key = key_of(m);
    self->install_counted(
        self->replicas_[kRep].entries[slot_of(key)], key, r.response,
        // scm-lint: coarse (completion callback: no serving context)
        self->line_of(key).gen.load(std::memory_order_seq_cst));
  }

  // The fill callback of replica `rep`: one instantiation per replica,
  // so a fill refills its caller's replica whichever thread runs it.
  static CompletionFn fill_cb_for(std::size_t rep) noexcept {
    static constexpr auto kFills =
        []<std::size_t... kReps>(std::index_sequence<kReps...>) {
          return std::array<CompletionFn, kReplicas>{&fill_cb<kReps>...};
        }(std::make_index_sequence<kReplicas>{});
    return kFills[rep];
  }

  // A write bumps its key's slot generation FIRST (from this instant
  // every replica's pre-write entries in that slot miss), then — when
  // the model can derive the post-write value — installs the written
  // key into the slot line's `last` tagged with the new generation,
  // which serves it to every replica. Aborted results bump too: a
  // spurious invalidation is a missed hit, never an error.
  static void write_cb(void* user, const Request& m, const ModuleResult& r) {
    auto* self = static_cast<Replicated*>(user);
    const std::uint64_t key = key_of(m);
    SlotLine& line = self->line_of(key);
    const std::uint64_t g =
        // scm-lint: coarse (completion callback: no serving context)
        line.gen.fetch_add(1, std::memory_order_seq_cst) + 1;
    if (r.committed()) {
      if (const auto v = Model::read_after_write(m, r.response)) {
        self->install_counted(line.last, key, *v, g);
      }
    }
  }

  // Routes an operation through the wrapped object: its callback-
  // carrying submit when it has one (Combining and wrappers thereof:
  // the callback fires at the serialization point), inline apply +
  // callback and a ready ticket otherwise. Out of line, so the wrapped
  // object's submit path stays out of invoke()'s hit path.
  template <class Ctx>
  [[gnu::noinline]] Ticket<ModuleResult> submit_through(
      Ctx& ctx, const Request& m, std::optional<SwitchValue> init,
      CompletionFn cb) {
    if constexpr (requires(Obj& o) { o.submit(ctx, m, init, cb, this); }) {
      return obj_.value.submit(ctx, m, init, cb, this);
    } else {
      const ModuleResult r = scm::apply(obj_.value, ctx, m, init);
      if (cb != nullptr) cb(this, m, r);
      return Ticket<ModuleResult>::ready(r);
    }
  }

  std::array<Replica, kReplicas> replicas_{};
  std::array<SlotLine, kEntries> lines_{};
  Tally<kTallyFields> tally_;
  Padded<Obj> obj_;
};

// The single-replica special case: one shared table — the right shape
// when everything runs on few cores or the replicas would all be
// filled with the same hot keys anyway.
template <class Obj, class Model, std::size_t kEntries = 64>
using Cached = Replicated<Obj, 1, Model, kEntries>;

}  // namespace scm
