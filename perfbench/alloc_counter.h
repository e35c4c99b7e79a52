#ifndef AIRINDEX_PERFBENCH_ALLOC_COUNTER_H_
#define AIRINDEX_PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

/// Heap allocations made by the calling thread since it started, counted by
/// the replacement global operator new of this binary (alloc_counter.cc).
/// Thread-local, so workers never contend on the counters and a delta taken
/// around a call on one thread covers exactly that call's allocations.
struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

AllocCount ThreadAllocs();

}  // namespace perfbench

#endif  // AIRINDEX_PERFBENCH_ALLOC_COUNTER_H_
