#include "verbs/memory.hpp"

namespace dgiwarp::verbs {

namespace {

// Registration pins pages and allocates a translation entry; account a
// small per-region cost plus a per-page descriptor estimate.
i64 mr_ledger_bytes(std::size_t region_bytes) {
  return 64 + static_cast<i64>(region_bytes / 4096 + 1) * 8;
}

}  // namespace

ProtectionDomain::ProtectionDomain(host::Host& host)
    : host_(host), mem_(host.ledger_ptr(), "iwarp.pd", 512) {}

// A PD that never registered leaves no iwarp.mr category behind.
ProtectionDomain::~ProtectionDomain() {
  if (mr_bytes_ != 0) host_.ledger().sub("iwarp.mr", mr_bytes_);
}

MemoryRegion ProtectionDomain::register_memory(ByteSpan region, u32 access) {
  const ddp::MemoryRegionInfo info = stags_.register_region(region, access);
  const i64 bytes = mr_ledger_bytes(region.size());
  host_.ledger().add("iwarp.mr", bytes);
  mr_bytes_ += bytes;
  return MemoryRegion{info.stag, region, access};
}

Status ProtectionDomain::deregister(u32 stag) {
  const ddp::MemoryRegionInfo* info = stags_.find(stag);
  if (!info) return Status(Errc::kNotFound, "unknown STag");
  const i64 bytes = mr_ledger_bytes(info->region.size());
  host_.ledger().sub("iwarp.mr", bytes);
  mr_bytes_ -= bytes;
  return stags_.invalidate(stag);
}

}  // namespace dgiwarp::verbs
