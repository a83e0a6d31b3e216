// RDMA Write-Record target-side machinery — the paper's core contribution.
//
// Semantics (paper §IV.B.3-4):
//  * The source segments a message and transmits tagged DDP segments; the
//    operation completes at the source "at the moment that the last bit of
//    the message is passed to transport layer". No receive WR is consumed
//    at the target — it is a truly one-sided operation.
//  * The target places every arriving chunk directly into the advertised
//    registered region and LOGS (chunk location, size) so the application
//    can learn which bytes are valid. The log surfaces either as individual
//    completion entries per chunk or as an aggregated VALIDITY MAP.
//  * A message's aggregated completion is raised when its LAST segment
//    arrives, carrying the validity map accumulated so far; "loss of this
//    final packet results in the loss of the entire message" — records that
//    never see their last segment expire and are reported as dropped.
//  * This enables PARTIAL delivery under loss: for a multi-datagram message
//    every arrived 64 KB chunk is already in place and declared valid even
//    if sibling chunks died (Figure 8's graceful degradation).
#pragma once

#include <map>
#include <vector>

#include "common/byte_ranges.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::rdmap {

/// Sorted, coalesced set of valid byte ranges within one message.
class ValidityMap {
 public:
  using Range = ByteRange;

  /// Record [offset, offset+length) as valid. Overlaps coalesce.
  void add(u32 offset, u32 length);

  const std::vector<Range>& ranges() const { return ranges_; }
  std::size_t valid_bytes() const;
  /// True when [0, msg_len) is fully covered.
  bool complete(u32 msg_len) const;
  /// Fraction of msg_len covered (for stats / goodput computation).
  double coverage(u32 msg_len) const;

 private:
  std::vector<Range> ranges_;  // sorted, non-overlapping
};

/// Completed (or expired) Write-Record message as surfaced to the verbs
/// layer for CQ insertion.
struct WriteRecordCompletion {
  u32 src_qpn = 0;
  u32 msg_id = 0;
  u32 stag = 0;
  u64 base_to = 0;       // target offset of message byte 0
  u32 msg_len = 0;
  ValidityMap validity;
  bool last_seen = false;  // false => expired without its final segment
};

/// Per-QP log of in-flight Write-Record messages at the target.
class WriteRecordLog {
 public:
  struct ChunkResult {
    bool message_completed = false;  // LAST segment arrived with this chunk
    bool late = false;               // chunk for an already-completed message
  };

  /// Counts into, and traces to, the owning Simulation's registry
  /// (rdmap.write_record.*). The log sits below the simnet layer and has no
  /// Simulation handle of its own, so the owning QP passes it in.
  explicit WriteRecordLog(telemetry::Registry& reg);

  /// Record an arriving chunk (already placed by the DDP layer).
  /// `to` is the chunk's target offset; `base` = to - mo identifies the
  /// message's origin so the completion can report where the data landed.
  ChunkResult record_chunk(u32 src_ip, u32 src_qpn, u32 msg_id, u32 stag,
                           u64 to, u32 mo, u32 len, u32 msg_len, bool last,
                           TimeNs deadline);

  /// Take the completion raised by the chunk that carried LAST.
  Result<WriteRecordCompletion> take_completed();

  /// Expire records whose LAST segment never arrived.
  std::vector<WriteRecordCompletion> expire_before(TimeNs now);

  std::size_t inflight() const { return records_.size(); }

 private:
  struct Key {
    u32 src_ip;
    u32 src_qpn;
    u32 msg_id;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Record {
    WriteRecordCompletion c;
    TimeNs deadline = 0;
  };

  std::map<Key, Record> records_;
  std::vector<WriteRecordCompletion> completed_;
  std::map<Key, TimeNs> recently_completed_;  // late-chunk detection
  telemetry::Registry& reg_;
  telemetry::Counter& chunks_;
  telemetry::Counter& completed_msgs_;
  telemetry::Counter& out_of_order_;
  telemetry::Counter& expired_;
  telemetry::Counter& late_chunks_;
};

}  // namespace dgiwarp::rdmap
