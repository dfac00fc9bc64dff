// SCM_ASSERT_ADDRESS_FREE — the one spelling of "this type may live
// inside a shared-memory segment".
//
// A segment maps at a different virtual address in every process, so a
// segment-resident type must be meaningful as raw bytes at any
// address: no pointers or references (store offsets), no virtual
// anything (a vtable pointer is a process-local address), no
// destructor side effects (nobody destroys segment objects in-place —
// the segment outlives any single process and dies by unlink).
//
// The macro asserts the two properties the type system CAN check:
//
//   * standard layout — rules out virtual members/bases and guarantees
//     an inter-process-stable object representation;
//   * trivial destructibility — rules out ownership semantics that
//     would need to run in some particular process.
//
// Deliberate deviation from the classic "trivially copyable" test:
// segment types hold std::atomic members (whose copy operations are
// deleted) and delete their own copy constructors to prevent accidental
// by-value slicing out of the segment, so is_trivially_copyable_v is
// unattainable for exactly the types this macro exists for.
// What no trait can check — pointer-typed data members that are
// otherwise standard-layout (e.g. `void* base_`) — is covered by the
// address-free lint pass (tools/scm_lint.py), which scans member
// declarations under src/shm/ and requires every non-process-local
// type there to carry this macro.
#pragma once

#include <type_traits>

// Variadic so template-ids with commas (ShmCombining<Obj, 2>) pass
// through as one type argument.
#define SCM_ASSERT_ADDRESS_FREE(...)                                  \
  static_assert(std::is_standard_layout_v<__VA_ARGS__>,               \
                #__VA_ARGS__                                          \
                " must be standard-layout to be segment-resident "    \
                "(no virtuals, one access control, stable layout)");  \
  static_assert(std::is_trivially_destructible_v<__VA_ARGS__>,        \
                #__VA_ARGS__                                          \
                " must be trivially destructible: segment objects "   \
                "are never destroyed in-place")
