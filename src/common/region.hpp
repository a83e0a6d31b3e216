// Zero-filled byte regions for registered receive rings.
//
// A socket registers its whole receive ring up front, but a listener's
// ring is mostly never written: fig12's 500 SIP listening rings are
// 512 KiB each, and about 10 of each ring's 128 pages ever take data.
// A ZeroRegion of kMapThreshold bytes or more is an anonymous mapping, so
// the kernel hands out zero pages on first touch and an untouched page
// costs no RSS; a smaller one is an ordinary `Bytes`.
#pragma once

#include <cstddef>

#include "common/buffer.hpp"

namespace dgiwarp {

class ZeroRegion {
 public:
  /// Regions at least this large are mapped. A smaller ring is written
  /// anyway, and a mapping of its own costs an mmap and a munmap: mapping
  /// every ring cut fig11's, fig12's and sip_fleet's peak RSS by under 1 %
  /// and raised sip_fleet's system time by half (DESIGN.md §5). calloc is
  /// no substitute for mmap: once large blocks are freed, glibc raises its
  /// dynamic mmap threshold, later rings come from the heap and calloc
  /// zero-fills them (it saved fig12 41 MiB, against 233 MiB for mmap).
  static constexpr std::size_t kMapThreshold = 64 * 1024;

  ZeroRegion() = default;
  /// `bytes` zero bytes. Under AddressSanitizer every region is a `Bytes`,
  /// because ASan puts no redzones around a mapping and would miss an
  /// overread off the end of a ring.
  explicit ZeroRegion(std::size_t bytes);
  ZeroRegion(ZeroRegion&& other) noexcept;
  ZeroRegion& operator=(ZeroRegion&& other) noexcept;
  ZeroRegion(const ZeroRegion&) = delete;
  ZeroRegion& operator=(const ZeroRegion&) = delete;
  ~ZeroRegion();

  ByteSpan span() { return map_ ? ByteSpan{map_, size_} : ByteSpan{heap_}; }
  std::size_t size() const { return size_; }

 private:
  void unmap();

  Bytes heap_;           // the region when it is not mapped
  u8* map_ = nullptr;    // the region when it is mapped
  std::size_t size_ = 0;
};

}  // namespace dgiwarp
