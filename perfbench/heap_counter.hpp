// Counting global allocator for the benchmark executable: every global
// operator new forwards to malloc and bumps an allocation and a byte
// counter. Callers snapshot the counters at phase boundaries and subtract.
#pragma once

#include <cstdint>

namespace perfbench {

struct HeapCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;

  HeapCount operator-(const HeapCount& o) const { return {allocs - o.allocs, bytes - o.bytes}; }
};

/// Allocations and requested bytes since the program started.
HeapCount HeapNow();

}  // namespace perfbench
