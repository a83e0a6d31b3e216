// Steering tags and the registered-memory table.
//
// Tagged DDP placement requires "the requested memory location must be
// registered with the device as a valid memory region before placing the
// data" (paper §II). StagTable is that registry: it hands out STags for
// application buffers and validates every tagged access against bounds and
// access rights.
#pragma once

#include <unordered_map>

#include "common/buffer.hpp"
#include "common/status.hpp"

namespace dgiwarp::ddp {

enum AccessFlags : u32 {
  kLocalRead = 1u << 0,
  kLocalWrite = 1u << 1,
  kRemoteRead = 1u << 2,
  kRemoteWrite = 1u << 3,
};

struct MemoryRegionInfo {
  u32 stag = 0;
  ByteSpan region;
  u32 access = 0;
};

class StagTable {
 public:
  /// Register `region` and return its STag. The caller keeps the memory
  /// alive until invalidate().
  MemoryRegionInfo register_region(ByteSpan region, u32 access);

  /// Remove a registration; subsequent accesses fail with kAccessDenied.
  Status invalidate(u32 stag);

  /// Validate an access of `len` bytes at tagged offset `to` (byte offset
  /// from the start of the region) with rights `need`; returns the target
  /// span on success.
  Result<ByteSpan> check(u32 stag, u64 to, std::size_t len, u32 need) const;

  /// The registration behind `stag`, or nullptr if there is none.
  const MemoryRegionInfo* find(u32 stag) const {
    auto it = regions_.find(stag);
    return it == regions_.end() ? nullptr : &it->second;
  }

  bool contains(u32 stag) const { return regions_.contains(stag); }
  std::size_t size() const { return regions_.size(); }

 private:
  std::unordered_map<u32, MemoryRegionInfo> regions_;
  u32 next_stag_ = 0x100;
};

}  // namespace dgiwarp::ddp
