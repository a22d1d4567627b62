// Counts every operator-new call in the process, so the benchmark can
// report exact allocations per committed transaction.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "driver.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

uint64_t perfbench::AllocCount() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// The replacement operator new above is malloc-based, so free() is the
// matching deallocator; GCC cannot see the pairing and misfires
// -Wmismatched-new-delete at call sites inlined into these definitions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
