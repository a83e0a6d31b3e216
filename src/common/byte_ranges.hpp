// Sorted, coalesced sets of byte ranges within one message: which bytes of
// a fragmented IP datagram have arrived (host::IpLayer), which bytes of a
// UD untagged message have arrived (ddp::UntaggedReassembler) and which
// bytes of a Write-Record are valid (rdmap::ValidityMap).
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace dgiwarp {

/// [offset, offset + length).
struct ByteRange {
  u32 offset = 0;
  u32 length = 0;
  u32 end() const { return offset + length; }
  friend bool operator==(const ByteRange&, const ByteRange&) = default;
};

/// Add [offset, offset + length) to `ranges`, which stay sorted and neither
/// overlap nor touch: the new range absorbs every range it overlaps or
/// abuts. Returns how many of its bytes `ranges` did not already cover.
inline std::size_t merge_range(std::vector<ByteRange>& ranges, u32 offset,
                               u32 length) {
  if (length == 0) return 0;
  u32 begin = offset;
  u32 end = offset + length;
  // Ranges before `first` end short of the new one; [first, last) is what it
  // absorbs.
  auto first = std::lower_bound(
      ranges.begin(), ranges.end(), begin,
      [](const ByteRange& r, u32 b) { return r.end() < b; });
  auto last = first;
  std::size_t covered = 0;
  for (; last != ranges.end() && last->offset <= end; ++last) {
    covered += last->length;
    begin = std::min(begin, last->offset);
    end = std::max(end, last->end());
  }
  const ByteRange merged{begin, end - begin};
  if (first == last) {
    ranges.insert(first, merged);
  } else {
    *first = merged;
    ranges.erase(first + 1, last);
  }
  return merged.length - covered;
}

}  // namespace dgiwarp
