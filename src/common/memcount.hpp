// Process-wide heap-allocation accounting for the simulator's hot byte
// paths.
//
// CountingAllocator is a std::allocator shim that bumps two global tallies
// (allocation count, bytes requested) on every allocate(). The `Bytes`
// alias in common/buffer.hpp routes every Frame payload / wire buffer in
// the stack through it. perfbench reports the tally as
// `alloc.bytes_path`, next to its count of every heap allocation, and
// fig13_incast samples it as the `sim.alloc.*` series. It is the baseline
// the planned block-pool allocator work must beat (ROADMAP).
//
// The counters are plain (non-atomic) globals: the simulator is
// single-threaded by design, and keeping them plain makes the accounting
// genuinely free — an increment per allocation, no branch, no registry
// key, so default metrics JSON stays byte-identical. Counts are
// deterministic for a fixed seed (allocation *requests* are replayed
// exactly; only wall-clock varies), so double-run determinism gates may
// compare deltas.
#pragma once

#include <cstddef>
#include <limits>
#include <new>

#include "common/types.hpp"

namespace dgiwarp::mem {

struct AllocTally {
  u64 count = 0;  // calls to allocate()
  u64 bytes = 0;  // bytes requested (not capacity rounding)
};

inline AllocTally g_tally;

/// Point-in-time snapshot; subtract two to attribute allocations to a
/// region of execution.
inline AllocTally snapshot() { return g_tally; }

inline AllocTally delta(const AllocTally& before) {
  return AllocTally{g_tally.count - before.count, g_tally.bytes - before.bytes};
}

template <typename T>
class CountingAllocator {
 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  constexpr CountingAllocator() noexcept = default;
  template <typename U>
  constexpr CountingAllocator(const CountingAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    ++g_tally.count;
    g_tally.bytes += static_cast<u64>(n) * sizeof(T);
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p); }

  template <typename U>
  constexpr bool operator==(const CountingAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace dgiwarp::mem
