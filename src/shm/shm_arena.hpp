// The shm layer's platform gate, and nothing else: SCM_HAS_POSIX_SHM is
// 1 where the cross-process executor (shm/shm_combining.hpp) and its
// fork-based tests can build, and 0 elsewhere. The file keeps its name
// because perfbench's ipc-counter and those tests include it for this
// macro.
#pragma once

#if defined(__unix__) || defined(__APPLE__)
#define SCM_HAS_POSIX_SHM 1
#else
// No POSIX shm on this target: the shm subsystem compiles away and
// shm_test reports a skip instead of running.
#define SCM_HAS_POSIX_SHM 0
#endif
