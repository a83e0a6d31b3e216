// RFC 1071 Internet checksum (16-bit ones'-complement sum). TCP uses this
// over each segment so link-level corruption is caught and repaired by
// retransmission instead of being streamed into MPA. Kept separate from
// crc32.hpp: the transports checksum with this, the ULPs CRC with that.
#pragma once

#include <bit>
#include <cstring>

#include "common/buffer.hpp"
#include "common/types.hpp"

namespace dgiwarp {

/// Ones'-complement sum of `data` as big-endian 16-bit words (odd trailing
/// byte padded with zero), final complement. All-zero input yields 0xFFFF;
/// a correct checksum field makes the recomputed sum-with-field == 0xFFFF.
///
/// Summed as RFC 1071 §2 allows: native 64-bit words with end-around
/// carry (a sum mod 2^64 - 1, which 2^16 - 1 divides), folded to 16 bits,
/// then byte-swapped once on a little-endian host, because the sum of
/// byte-swapped words is the byte-swapped sum.
inline u16 internet_checksum(ConstByteSpan data) {
  u64 sum = 0;
  const auto add = [&sum](u64 word) {
    sum += word;
    sum += sum < word ? 1 : 0;  // end-around carry
  };
  const u8* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    u64 word;
    std::memcpy(&word, p, 8);
    add(word);
  }
  if (n > 0) {
    u64 tail = 0;  // zero-padded, as the odd byte is
    std::memcpy(&tail, p, n);
    add(tail);
  }
  while (sum >> 16) sum = (sum & 0xFFFFu) + (sum >> 16);
  auto folded = static_cast<u16>(sum);
  if constexpr (std::endian::native == std::endian::little)
    folded = static_cast<u16>((folded >> 8) | (folded << 8));
  return static_cast<u16>(~folded);
}

}  // namespace dgiwarp
