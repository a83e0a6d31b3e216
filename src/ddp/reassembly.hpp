// Receive-side assembly of untagged (send/recv) messages on the UD path.
//
// Each message is identified by (source endpoint, source QP, MSN). Segments
// carry their message offset (MO) and total length, so they can be placed
// directly into the matched receive buffer as they arrive — no staging copy
// and no ordering requirement. A message completes only when every byte has
// arrived (send/recv is all-or-nothing: Figure 7's loss collapse); stalled
// messages expire so their receive WRs can be recovered ("detect failed
// operations and recover buffers", paper Figure 2).
#pragma once

#include <map>
#include <vector>

#include "common/buffer.hpp"
#include "common/byte_ranges.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace dgiwarp::ddp {

struct UntaggedKey {
  u32 src_ip = 0;
  u16 src_port = 0;
  u32 src_qpn = 0;
  u32 msn = 0;

  friend auto operator<=>(const UntaggedKey&, const UntaggedKey&) = default;
};

class UntaggedReassembler {
 public:
  struct OfferResult {
    bool completed = false;     // all bytes of the message have been placed
    std::size_t placed = 0;     // bytes placed by this offer
  };

  /// Start tracking a message: `sink` is the matched receive buffer (must
  /// outlive the assembly), `cookie` is the verbs-layer WR handle.
  Status begin(const UntaggedKey& key, u32 msg_len, ByteSpan sink, u64 cookie,
               TimeNs deadline);

  bool tracking(const UntaggedKey& key) const {
    return inflight_.contains(key);
  }

  /// Place one segment. Duplicate bytes are ignored (placed == 0).
  Result<OfferResult> offer(const UntaggedKey& key, u32 mo,
                            ConstByteSpan payload);

  /// Finish a completed message: returns its cookie and stops tracking.
  Result<u64> complete(const UntaggedKey& key);

  struct Expired {
    UntaggedKey key;
    u64 cookie = 0;
    std::size_t received = 0;
    u32 msg_len = 0;
  };
  /// Drop all messages whose deadline is <= now; returns them so the verbs
  /// layer can recover the receive WRs with an error completion.
  std::vector<Expired> expire_before(TimeNs now);

  std::size_t inflight() const { return inflight_.size(); }

 private:
  struct Assembly {
    ByteSpan sink;
    u32 msg_len = 0;
    u64 cookie = 0;
    TimeNs deadline = 0;
    std::size_t received = 0;
    // Received byte ranges, coalesced, to make duplicates idempotent.
    std::vector<ByteRange> ranges;
  };

  std::map<UntaggedKey, Assembly> inflight_;
};

}  // namespace dgiwarp::ddp
