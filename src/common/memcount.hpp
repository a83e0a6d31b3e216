// A tally of `Bytes` allocations that nothing counts into any more.
//
// Its only reader is perfbench's `alloc.bytes_path`, which therefore reads
// 0; perfbench v2 deletes that metric and this header together. perfbench's
// own `operator new` hook counts every heap allocation.
#pragma once

#include "common/types.hpp"

namespace dgiwarp::mem {

struct AllocTally {
  u64 count = 0;  // allocations
  u64 bytes = 0;  // bytes requested
};

/// Always zero.
inline AllocTally snapshot() { return {}; }

/// Always zero.
inline AllocTally delta(const AllocTally&) { return {}; }

}  // namespace dgiwarp::mem
