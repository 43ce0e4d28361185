#include "heap_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Relaxed atomics: exact totals even if a worker thread allocates, and
// no ordering is needed because readers snapshot between phases.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void Count(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace

namespace perfbench {

HeapCount HeapNow() {
  return {g_allocs.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

// The standard's default array and nothrow forms forward to these. No
// sibling calls, so these frames stay on the stack and the sampler charges
// time inside malloc/free to "malloc".
#define PERFBENCH_KEEP_FRAME __attribute__((optimize("no-optimize-sibling-calls")))

PERFBENCH_KEEP_FRAME void* operator new(std::size_t size) {
  Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

PERFBENCH_KEEP_FRAME void* operator new(std::size_t size, std::align_val_t align) {
  Count(size);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

PERFBENCH_KEEP_FRAME void operator delete(void* p) noexcept { std::free(p); }
PERFBENCH_KEEP_FRAME void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
PERFBENCH_KEEP_FRAME void operator delete(void* p, std::size_t) noexcept { std::free(p); }
PERFBENCH_KEEP_FRAME void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
