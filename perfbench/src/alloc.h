#ifndef PERFBENCH_ALLOC_H_
#define PERFBENCH_ALLOC_H_

#include <cstdint>

namespace perfbench {

/// Which part of the workload a thread plays. Threads the library
/// starts itself (fleet shard drains, thread-pool workers) never call
/// SetThreadRole and stay kLibrary.
enum class ThreadRole : int {
  kLibrary = 0,
  kMain = 1,
  kProducer = 2,
};

/// Tags the calling thread's allocation slot with `role`.
void SetThreadRole(ThreadRole role);

/// Heap allocations (operator new calls) made so far by the calling
/// thread. Exact: each thread counts into its own slot.
uint64_t ThreadAllocCount();

/// Allocations made so far by every thread whose slot carries `role`.
uint64_t RoleAllocCount(ThreadRole role);

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_H_
