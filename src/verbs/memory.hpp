// Protection domains and memory registration.
#pragma once

#include "common/memledger.hpp"
#include "ddp/stag.hpp"
#include "hoststack/host.hpp"

namespace dgiwarp::verbs {

using ddp::AccessFlags;
using ddp::kLocalRead;
using ddp::kLocalWrite;
using ddp::kRemoteRead;
using ddp::kRemoteWrite;

/// Handle for a registered memory region.
struct MemoryRegion {
  u32 stag = 0;
  ByteSpan span;
  u32 access = 0;
};

class ProtectionDomain {
 public:
  explicit ProtectionDomain(host::Host& host);
  /// Releases every region still registered, with its ledger charge.
  ~ProtectionDomain();
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  /// Register `region`; the memory must outlive the registration. The
  /// returned STag can be advertised to peers for tagged access.
  MemoryRegion register_memory(ByteSpan region, u32 access);

  /// Invalidate `stag` and refund the ledger charge register_memory made.
  Status deregister(u32 stag);

  const ddp::StagTable& stags() const { return stags_; }
  ddp::StagTable& stags() { return stags_; }
  std::size_t registered_regions() const { return stags_.size(); }

 private:
  host::Host& host_;
  ddp::StagTable stags_;
  MemCharge mem_;
  i64 mr_bytes_ = 0;  // iwarp.mr charged for the regions in stags_
};

}  // namespace dgiwarp::verbs
