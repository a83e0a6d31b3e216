// Counts every heap allocation of the benchmark process by replacing the
// global operator new/delete family. The simulator's own counter
// (common/memcount.hpp) sees only `Bytes` buffers; this one also sees
// std::function captures, map nodes, strings and shared_ptr control blocks.
//
// The tallies are plain globals: the process is single-threaded, and a
// zero-initialised aggregate is constant-initialised, so allocations made
// before main() are counted safely.
#include <cstdlib>
#include <new>

#include "probe.hpp"

namespace {

pb::HeapTally g_heap;

void* counted(std::size_t n) {
  ++g_heap.count;
  g_heap.bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  ++g_heap.count;
  g_heap.bytes += n;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = n == 0 ? a : (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

pb::HeapTally pb::heap_tally() { return g_heap; }

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
