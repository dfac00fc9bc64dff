// ShmArena — the segment underneath cross-process composition.
//
// One POSIX shared-memory object (`shm_open` + `mmap`) holding three
// things: a header that lets independently-started binaries verify
// they are speaking the same layout (magic + version + capacity, with
// the magic written LAST so a half-initialized segment is
// indistinguishable from an absent one), a bump/free-list allocator,
// and a fixed-capacity name → {offset, size, type-tag} discovery
// table so processes resolve objects BY NAME instead of sharing
// addresses out of band (the zeroipc specification pattern).
//
// The cardinal rule of everything in this directory: the segment maps
// at a DIFFERENT virtual address in every process, so nothing stored
// inside it may be a pointer. Objects are addressed by their byte
// offset from the segment base (offset 0 is reserved as the null
// offset — it is the header), and a reference from one segment object
// to another stores only an offset. Synchronization words are
// std::atomic on lock-free 32/64-bit integers, which are address-free:
// acquire/release pairs order accesses between mappings of the same
// physical page regardless of where each process mapped it.
//
// Concurrency envelope: alloc/free/publish take the header lock — they
// are SETUP-path operations (a server laying out the segment, clients
// registering), not per-operation ones. The lock is the combining
// executors' election gate (core/slot_protocol.hpp) holding the
// locker's pid, so a process killed while it holds the lock does not
// wedge the segment: a waiter whose backoff ladder saturates probes the
// holder and steals the lock from a dead one. Stealing is sound because
// every mutation under the lock commits with one store — a free-list
// pop, split or bump (the free-list link or the bump pointer), a push
// (the list head) and a table publish (the entry's ready flag) — so a
// dead holder left either all of its change or none of it, never half.
// resolve() is lock-free (an acquire scan of the table) so attaching
// clients never contend with each other. The per-operation hot path
// never enters this file: ShmCombining synchronizes on its own words.
#pragma once

#if defined(__unix__) || defined(__APPLE__)
#define SCM_HAS_POSIX_SHM 1
#else
// No POSIX shm on this target: the shm subsystem compiles away and
// shm_test reports a skip instead of running.
#define SCM_HAS_POSIX_SHM 0
#endif

#if SCM_HAS_POSIX_SHM

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "core/slot_protocol.hpp"
#include "runtime/context.hpp"
#include "shm/shm_layout.hpp"
#include "support/assert.hpp"
#include "support/backoff.hpp"
#include "support/process.hpp"

namespace scm {

// Liveness probe for a gate or record holder stamped with a pid:
// signal 0 delivers nothing but performs the existence/permission
// check. EPERM means "exists but not ours" — alive; only ESRCH means
// gone.
inline bool shm_process_alive(std::uint32_t pid) noexcept {
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

// ShmArena is the process-local HANDLE to a segment (mapping base,
// path) — it lives on this process's stack/heap, never inside the
// segment itself. Only the nested Header/NameEntry/FreeBlock structs
// are segment-resident.
// scm-lint: process-local
class ShmArena {
 public:
  // "scm-shm1" — also the init-complete flag: create() stores it with
  // release as the LAST step of segment initialization, and attach()
  // reads it with acquire, so observing the magic implies observing
  // the fully-built header behind it.
  static constexpr std::uint64_t kMagic = 0x73636d2d73686d31ull;
  // Bumped whenever the header layout changes; folded together with
  // sizeof(Header) into the version word so layout drift between
  // binaries fails fast at attach() instead of corrupting the table.
  static constexpr std::uint32_t kLayoutVersion = 1;
  static constexpr std::size_t kNameCapacity = 48;  // incl. terminator
  static constexpr std::size_t kNameTableEntries = 32;

  // What resolve() hands back: where the object lives, how big it is,
  // and the publisher's type tag — the attacher checks the tag against
  // its own compiled-in value before touching a single byte.
  struct Resolved {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint32_t type_tag = 0;
  };
  SCM_ASSERT_ADDRESS_FREE(Resolved);

  // The header lock's type: the combining executors' election gate.
  using gate_type = ElectionGate;

  // ---- segment lifecycle -------------------------------------------

  // Creates (O_CREAT | O_EXCL) and fully initializes a segment. The
  // name follows shm_open rules (a leading '/' is added if missing).
  // Returns nullopt with *error filled on any failure — including the
  // segment already existing, which callers surface rather than
  // silently reattach (a stale segment from a crashed run carries
  // stale state).
  static std::optional<ShmArena> create(const std::string& name,
                                        std::uint64_t bytes,
                                        std::string* error = nullptr) {
    const std::string path = normalize(name);
    if (bytes < sizeof(Header) + kMinObjectBytes) {
      return fail(error, "segment too small for the arena header");
    }
    const int fd = ::shm_open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) {
      return fail(error, "shm_open(create " + path +
                             ") failed: " + std::strerror(errno));
    }
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      const int err = errno;
      ::close(fd);
      ::shm_unlink(path.c_str());
      return fail(error,
                  "ftruncate failed: " + std::string(std::strerror(err)));
    }
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                        fd, 0);
    ::close(fd);  // the mapping keeps the segment alive
    if (base == MAP_FAILED) {
      ::shm_unlink(path.c_str());
      return fail(error, "mmap failed: " + std::string(std::strerror(errno)));
    }

    auto* header = new (base) Header();
    header->version = version_word();
    header->page_size =
        static_cast<std::uint32_t>(::sysconf(_SC_PAGESIZE));
    header->capacity = bytes;
    header->bump.store(align_up(sizeof(Header), kMinAlign),
                       std::memory_order_relaxed);
    // Init-complete flag, last: an attacher that sees the magic sees
    // everything above it.
    header->magic.store(kMagic, std::memory_order_release);
    return ShmArena(path, base, bytes);
  }

  // Maps an existing segment and validates it was built by a
  // compatible binary: magic present (init complete), version word
  // equal (same header layout), capacity matching the file size.
  // Fails fast (nullopt + *error) on any mismatch; callers that race
  // against a server still creating the segment retry attach() in a
  // loop. shm_test's AttachRejects* cases pin each rejection.
  static std::optional<ShmArena> attach(const std::string& name,
                                        std::string* error = nullptr) {
    const std::string path = normalize(name);
    const int fd = ::shm_open(path.c_str(), O_RDWR, 0600);
    if (fd < 0) {
      return fail(error, "shm_open(attach " + path +
                             ") failed: " + std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 ||
        st.st_size < static_cast<off_t>(sizeof(Header))) {
      ::close(fd);
      return fail(error, "segment exists but is not arena-sized yet");
    }
    const auto bytes = static_cast<std::uint64_t>(st.st_size);
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                        fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      return fail(error, "mmap failed: " + std::string(std::strerror(errno)));
    }
    const auto* header = static_cast<const Header*>(base);
    if (header->magic.load(std::memory_order_acquire) != kMagic) {
      ::munmap(base, bytes);
      return fail(error, "segment not initialized (magic mismatch)");
    }
    if (header->version != version_word()) {
      ::munmap(base, bytes);
      return fail(error,
                  "arena layout version mismatch (rebuilt binary against a "
                  "live segment?)");
    }
    if (header->capacity != bytes) {
      ::munmap(base, bytes);
      return fail(error, "segment size does not match its header");
    }
    return ShmArena(path, base, bytes);
  }

  // Removes the NAME from the filesystem namespace; live mappings
  // survive until every process unmaps. The creator calls this when
  // the run is over (and defensively before create on retry paths).
  static bool unlink(const std::string& name) {
    return ::shm_unlink(normalize(name).c_str()) == 0;
  }

  ShmArena(ShmArena&& other) noexcept
      : path_(std::move(other.path_)),
        base_(std::exchange(other.base_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  ShmArena& operator=(ShmArena&& other) noexcept {
    if (this != &other) {
      unmap();
      path_ = std::move(other.path_);
      base_ = std::exchange(other.base_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;
  ~ShmArena() { unmap(); }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return bytes_; }
  [[nodiscard]] std::uint32_t page_size() const noexcept {
    return header().page_size;
  }

  // ---- allocation --------------------------------------------------

  // Allocates `bytes` at alignment `align` and returns the offset, or
  // 0 (the null offset) when the segment is exhausted. First-fit over
  // the free list, then the bump pointer. Setup-path: takes the header
  // lock.
  [[nodiscard]] std::uint64_t alloc(std::uint64_t bytes,
                                    std::uint64_t align = kMinAlign) {
    SCM_CHECK_MSG(align != 0 && (align & (align - 1)) == 0,
                  "alignment must be a power of two");
    bytes = round_size(bytes);
    Header& h = header();
    LockGuard guard(h.lock);

    // Free-list first fit: a block serves the request when it is big
    // enough and its offset happens to satisfy the alignment (blocks
    // are at least kMinAlign-aligned by construction). A tail
    // remainder big enough to be a block is split back onto the list.
    const std::uint64_t end = allocated_end(h);
    std::uint64_t walked = 0;
    std::uint64_t prev = 0;
    for (std::uint64_t off = h.free_head.load(std::memory_order_relaxed);
         off != 0;) {
      auto* block = checked_block(off, end, walked);
      const std::uint64_t next = block->next;
      if (block->size >= bytes && off % align == 0) {
        const std::uint64_t remainder = block->size - bytes;
        if (remainder >= kMinObjectBytes) {
          auto* tail = at_unchecked<FreeBlock>(off + bytes);
          tail->next = next;
          tail->size = remainder;
          relink(h, prev, off + bytes);
        } else {
          relink(h, prev, next);
        }
        return off;
      }
      prev = off;
      off = next;
    }

    const std::uint64_t bump = h.bump.load(std::memory_order_relaxed);
    const std::uint64_t aligned = align_up(bump, align);
    if (aligned + bytes > h.capacity) return 0;  // exhausted
    h.bump.store(aligned + bytes, std::memory_order_relaxed);
    return aligned;
  }

  // Returns a block to the free list (no coalescing — arena churn is
  // setup-path, a handful of objects per run). `bytes` must be the
  // size passed to alloc. A block that overlaps one already on the
  // list (a double free) is a checked error: linking it twice would
  // make the list cyclic.
  void free(std::uint64_t offset, std::uint64_t bytes) {
    SCM_CHECK_MSG(offset != 0, "freeing the null offset");
    bytes = round_size(bytes);
    Header& h = header();
    LockGuard guard(h.lock);
    const std::uint64_t end = allocated_end(h);
    SCM_CHECK_MSG(offset >= sizeof(Header) && offset % kMinAlign == 0 &&
                      offset < end && bytes <= end - offset,
                  "freeing a block outside the arena's allocated region");
    std::uint64_t walked = 0;
    for (std::uint64_t off = h.free_head.load(std::memory_order_relaxed);
         off != 0;) {
      const FreeBlock* listed = checked_block(off, end, walked);
      SCM_CHECK_MSG(offset + bytes <= off || off + listed->size <= offset,
                    "double free: the block is already on the shm free list");
      off = listed->next;
    }
    auto* block = at_unchecked<FreeBlock>(offset);
    block->next = h.free_head.load(std::memory_order_relaxed);
    block->size = bytes;
    h.free_head.store(offset, std::memory_order_relaxed);
  }

  // Resolves an offset to this process's mapping of the object. The
  // offset must come from alloc()/resolve() — offset 0 (null) and
  // out-of-range offsets are checked errors.
  template <class T>
  [[nodiscard]] T* at(std::uint64_t offset) {
    SCM_CHECK_MSG(offset != 0, "dereferencing the null shm offset");
    constexpr std::uint64_t kObjectBytes =
        std::is_void_v<T> ? 0 : sizeof(std::conditional_t<std::is_void_v<T>,
                                                          char, T>);
    SCM_CHECK_MSG(offset + kObjectBytes <= bytes_,
                  "shm offset out of segment bounds");
    return at_unchecked<T>(offset);
  }

  // alloc + placement-new in one step. T must be free of pointers into
  // this process (enforced where possible: trivially destructible, so
  // nothing expects a destructor call in any particular process).
  template <class T, class... Args>
  [[nodiscard]] std::uint64_t construct(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "shm-resident objects are never destroyed in-place");
    const std::uint64_t off = alloc(sizeof(T), alignof(T));
    if (off == 0) return 0;
    new (at_unchecked<void>(off)) T(std::forward<Args>(args)...);
    return off;
  }

  // ---- discovery ---------------------------------------------------

  // Publishes `name` → {offset, size, type_tag} in the discovery
  // table. Fails (false) when the name is too long, already taken, or
  // the table is full. The entry's ready flag is a release store, so a
  // lock-free resolve() that sees it sees the fields behind it.
  bool publish(const std::string& name, std::uint64_t offset,
               std::uint64_t size, std::uint32_t type_tag) {
    if (name.empty() || name.size() >= kNameCapacity) return false;
    Header& h = header();
    LockGuard guard(h.lock);
    NameEntry* free_entry = nullptr;
    for (NameEntry& e : h.table) {
      if (e.state.load(std::memory_order_relaxed) == NameEntry::kReady) {
        if (std::strncmp(e.name, name.c_str(), kNameCapacity) == 0) {
          return false;  // duplicate
        }
      } else if (free_entry == nullptr) {
        free_entry = &e;
      }
    }
    if (free_entry == nullptr) return false;  // table full
    std::memset(free_entry->name, 0, kNameCapacity);
    std::memcpy(free_entry->name, name.c_str(), name.size());
    free_entry->offset = offset;
    free_entry->size = size;
    free_entry->type_tag = type_tag;
    free_entry->state.store(NameEntry::kReady, std::memory_order_release);
    return true;
  }

  // Lock-free name lookup: an acquire scan of the table. nullopt when
  // the name is not (yet) published — attaching clients poll this
  // until the server's publish lands.
  [[nodiscard]] std::optional<Resolved> resolve(const std::string& name) {
    Header& h = header();
    for (NameEntry& e : h.table) {
      if (e.state.load(std::memory_order_acquire) != NameEntry::kReady) {
        continue;
      }
      if (std::strncmp(e.name, name.c_str(), kNameCapacity) == 0) {
        return Resolved{e.offset, e.size, e.type_tag};
      }
    }
    return std::nullopt;
  }

 private:
  // Smallest allocation: big enough to be relinked as a FreeBlock.
  static constexpr std::uint64_t kMinObjectBytes = 16;
  static constexpr std::uint64_t kMinAlign = 16;

  struct FreeBlock {
    std::uint64_t next;  // offset of the next free block, 0 = end
    std::uint64_t size;
  };
  SCM_ASSERT_ADDRESS_FREE(FreeBlock);

  struct NameEntry {
    static constexpr std::uint32_t kEmpty = 0;
    static constexpr std::uint32_t kReady = 2;
    std::atomic<std::uint32_t> state{kEmpty};
    std::uint32_t type_tag = 0;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    char name[kNameCapacity] = {};
  };
  SCM_ASSERT_ADDRESS_FREE(NameEntry);

  struct Header {
    std::atomic<std::uint64_t> magic{0};  // kMagic once init completes
    std::uint32_t version = 0;
    std::uint32_t page_size = 0;
    std::uint64_t capacity = 0;
    gate_type lock;  // setup-path lock, holding the locker's pid
    std::uint32_t reserved = 0;
    std::atomic<std::uint64_t> bump{0};
    std::atomic<std::uint64_t> free_head{0};
    NameEntry table[kNameTableEntries]{};
  };
  SCM_ASSERT_ADDRESS_FREE(Header);
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "shm atomics must be address-free");

  // RAII guard over the header lock: stack-resident in the locking
  // process, holds a reference into the mapping. The gate's acquire is
  // test-and-test-and-set, paced by spin_backoff; once the ladder
  // saturates, each further attempt also probes the holder's pid and
  // steals the lock from a dead holder (see the file comment).
  // scm-lint: process-local
  class LockGuard {
   public:
    explicit LockGuard(gate_type& lock) : lock_(lock) {
      const std::uint32_t self = this_process_id();
      NativeContext uncounted;  // setup-path steps are not accounted
      int spins = 0;
      while (!lock_.try_acquire(uncounted, self)) {
        if (spin_backoff(spins) &&
            lock_.take_or_steal(uncounted, self, shm_process_alive)) {
          break;
        }
      }
    }
    ~LockGuard() { lock_.release(); }
    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

   private:
    gate_type& lock_;
  };

  ShmArena(std::string path, void* base, std::uint64_t bytes)
      : path_(std::move(path)), base_(base), bytes_(bytes) {}

  static std::string normalize(const std::string& name) {
    return name.empty() || name.front() == '/' ? name : "/" + name;
  }

  static std::optional<ShmArena> fail(std::string* error, std::string why) {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  }

  // Layout version: revision number folded with the header size, so
  // ANY header-layout drift between binaries changes the word.
  static constexpr std::uint32_t version_word() {
    return (kLayoutVersion << 16) ^
           static_cast<std::uint32_t>(sizeof(Header));
  }

  static constexpr std::uint64_t align_up(std::uint64_t v,
                                          std::uint64_t align) {
    return (v + align - 1) & ~(align - 1);
  }
  static constexpr std::uint64_t round_size(std::uint64_t bytes) {
    return align_up(bytes < kMinObjectBytes ? kMinObjectBytes : bytes,
                    kMinAlign);
  }

  [[nodiscard]] Header& header() noexcept {
    return *static_cast<Header*>(base_);
  }
  [[nodiscard]] const Header& header() const noexcept {
    return *static_cast<const Header*>(base_);
  }

  template <class T>
  [[nodiscard]] T* at_unchecked(std::uint64_t offset) noexcept {
    return reinterpret_cast<T*>(static_cast<char*>(base_) + offset);
  }

  // End of the bump-allocated region: every block, live or free, lies
  // in [sizeof(Header), end). Clamped to the mapping, so a corrupt
  // bump pointer cannot widen the range a link is checked against.
  [[nodiscard]] std::uint64_t allocated_end(const Header& h) const noexcept {
    const std::uint64_t bump = h.bump.load(std::memory_order_relaxed);
    return bump < bytes_ ? bump : bytes_;
  }

  // The free block at `off`, checked before the walk trusts it. The
  // segment is shared with every process that maps it, so a corrupt
  // link or a cycle (a double free, a stray write through at<>()) must
  // fail loudly here: an unchecked walk would spin forever under the
  // header lock and wedge every process that allocates next. A failed
  // check aborts with the lock held; the next locker steals it from
  // the dead process. `walked` counts the links visited so far; no list
  // can hold more blocks than the allocated region has room for.
  FreeBlock* checked_block(std::uint64_t off, std::uint64_t end,
                           std::uint64_t& walked) noexcept {
    SCM_CHECK_MSG(++walked <= (end - sizeof(Header)) / kMinObjectBytes,
                  "shm free list is longer than the arena can hold (a "
                  "cycle: double free or corrupt segment)");
    SCM_CHECK_MSG(off >= sizeof(Header) && off % kMinAlign == 0 && off < end,
                  "shm free-list link points outside the arena's "
                  "allocated region");
    auto* block = at_unchecked<FreeBlock>(off);
    SCM_CHECK_MSG(block->size >= kMinObjectBytes && block->size <= end - off,
                  "shm free block runs past the arena's allocated region");
    return block;
  }

  // Unlinks `from`'s successor to `to` (free-list surgery under the
  // header lock). prev == 0 means "from the head".
  void relink(Header& h, std::uint64_t prev, std::uint64_t to) {
    if (prev == 0) {
      h.free_head.store(to, std::memory_order_relaxed);
    } else {
      at_unchecked<FreeBlock>(prev)->next = to;
    }
  }

  void unmap() noexcept {
    if (base_ != nullptr) {
      ::munmap(base_, bytes_);
      base_ = nullptr;
    }
  }

  std::string path_;
  void* base_ = nullptr;
  std::uint64_t bytes_ = 0;
};

}  // namespace scm

#endif  // SCM_HAS_POSIX_SHM
