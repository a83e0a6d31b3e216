// CRC32 (IEEE 802.3). Datagram-iWARP "always requires the use of CRC32 when
// sending messages" (paper §IV.B item 6); this is that CRC. MPA (RFC 5044)
// specifies CRC32c instead; the model keeps IEEE CRC-32 with the same 4-byte
// trailer and per-byte charge (DESIGN.md §10). Inputs of 64 B or more are
// folded with PCLMULQDQ where the CPU has it; a slice-by-8 table does the
// rest.
#pragma once

#include "common/buffer.hpp"
#include "common/types.hpp"

namespace dgiwarp {

/// One-shot CRC32 over a span (initial value 0xFFFFFFFF, reflected, final
/// XOR — the standard Ethernet/MPA polynomial 0x04C11DB7).
u32 crc32_ieee(ConstByteSpan data);

/// Incremental form for a CRC over several spans (streamed FPDUs).
class Crc32 {
 public:
  void update(ConstByteSpan data);
  u32 final() const { return ~state_; }
  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  u32 state_ = 0xFFFFFFFFu;
};

}  // namespace dgiwarp
