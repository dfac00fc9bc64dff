// A shared mapping for the fork()-based tests.
//
// SharedMapping opens a POSIX shm object under a unique name, unlinks
// the name at once and keeps the descriptor, so no /dev/shm entry
// outlives the test, whether it passes, fails or dies. A forked child
// inherits both the parent's mapping (at the parent's address) and the
// descriptor; map_again() maps the object a second time, at an address
// of the kernel's choosing. That second mapping is how a client that
// opened the segment itself would see the object: same physical pages,
// its own base address.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <new>
#include <string>
#include <type_traits>

#include "support/assert.hpp"

namespace scm {

class SharedMapping {
 public:
  explicit SharedMapping(std::size_t bytes) : bytes_(bytes) {
    static int counter = 0;
    const std::string name = "/scm-test-" + std::to_string(::getpid()) +
                             "-" + std::to_string(counter++);
    fd_ = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    SCM_CHECK_MSG(fd_ >= 0, "shm_open failed");
    ::shm_unlink(name.c_str());
    SCM_CHECK_MSG(::ftruncate(fd_, static_cast<off_t>(bytes)) == 0,
                  "ftruncate failed");
    base_ = map_again();
  }
  SharedMapping(const SharedMapping&) = delete;
  SharedMapping& operator=(const SharedMapping&) = delete;
  ~SharedMapping() {
    ::munmap(base_, bytes_);
    ::close(fd_);
  }

  // This process's first mapping of the object.
  [[nodiscard]] void* base() const noexcept { return base_; }

  // A further mapping of the same object at a new address. It is never
  // unmapped: the forked children that call this end in _exit.
  [[nodiscard]] void* map_again() const {
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd_, 0);
    SCM_CHECK_MSG(p != MAP_FAILED, "mmap failed");
    return p;
  }

  // Placement-news a T at the start of the first mapping.
  template <class T>
  T& emplace() {
    static_assert(std::is_trivially_destructible_v<T>,
                  "segment-resident objects are never destroyed in-place");
    SCM_CHECK(sizeof(T) <= bytes_);
    return *new (base_) T();
  }

 private:
  std::size_t bytes_;
  int fd_ = -1;
  void* base_ = nullptr;
};

}  // namespace scm
