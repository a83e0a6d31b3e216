// Cost-attribution profiler: every CostModel charge flowing through
// sim::CpuModel can carry a CostSite — (layer, activity, byte count) — and
// the profiler buckets the charged nanoseconds by (layer, activity,
// message-size class). The result is the "where did the microseconds go"
// table the paper's latency arguments are made of: per-byte CRC vs. marker
// insertion vs. TCP segment processing vs. wakeup latency, split by size
// class, inspectable instead of inferred from calibration constants.
//
// Cost discipline matches the trace ring: record() is one predictable
// branch when disabled, and charges without a CostSite (the untagged
// overloads) never reach the profiler at all.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dgiwarp::telemetry {

/// Which layer of the stack charged the CPU.
enum class CostLayer : u8 {
  kIp = 0,
  kUdp,
  kTcp,
  kRd,
  kMpa,
  kDdp,
  kRdmap,
  kVerbs,
  kIsock,
};
inline constexpr u8 kCostLayerCount = 9;

/// What kind of work the charge paid for.
enum class CostActivity : u8 {
  kSyscall = 0,  // fixed per-call kernel entry/exit cost
  kCopy,         // per-byte data movement / touch
  kCrc,          // per-byte checksum work
  kMarkers,      // MPA marker insertion/removal
  kSegment,      // per-segment/datagram framing + parsing
  kDeliver,      // rx-side demux + handoff to the socket/QP layer
  kWakeup,       // receiver wakeup / scheduling
  kAck,          // ACK build/processing
  kRetransmit,   // retransmission-path work
  kPost,         // verbs post_send/post_recv bookkeeping
  kPoll,         // CQ poll
  kMatch,        // untagged receive matching
  kPlacement,    // tagged/Write-Record placement bookkeeping
  kControl,      // connection control (handshake, terminate, pure ACK tx)
};
inline constexpr u8 kCostActivityCount = 14;

const char* cost_layer_name(CostLayer l);
const char* cost_activity_name(CostActivity a);

/// Tag attached to a CpuModel charge. `bytes` is the payload size the
/// charge scaled with (0 for fixed costs) and selects the size class.
struct CostSite {
  CostLayer layer = CostLayer::kIp;
  CostActivity activity = CostActivity::kSyscall;
  u64 bytes = 0;
};

/// Log-spaced message-size classes: 0, <=64, <=256, <=1Ki ... <=1Mi, >1Mi.
inline constexpr u8 kSizeClassCount = 10;
u8 size_class_of(u64 bytes);
const char* size_class_name(u8 cls);

class CostProfiler {
 public:
  struct Bucket {
    u64 count = 0;
    u64 total_ns = 0;
    u64 total_bytes = 0;
  };

  void enable();
  bool enabled() const { return enabled_; }

  void record(const CostSite& site, TimeNs cost) {
    if (!enabled_) return;  // the whole hot-path cost when profiling is off
    Bucket& b = buckets_[index_of(site)];
    ++b.count;
    b.total_ns += static_cast<u64>(cost);
    b.total_bytes += site.bytes;
  }

  const Bucket& bucket(CostLayer l, CostActivity a, u8 size_class) const;
  u64 total_ns() const;
  u64 total_ns(CostLayer l) const;

  /// Bucket-wise addition (bench aggregation across measurement runs).
  /// Merges recorded data regardless of either side's enabled flag.
  void merge_from(const CostProfiler& other);

  void clear();

  /// Deterministic JSON: non-empty buckets in fixed (layer, activity,
  /// size-class) index order, integer fields only — same seed, same bytes.
  std::string to_json() const;

  /// Human-readable attribution table, largest total first (ties broken by
  /// index order, so the layout is deterministic too).
  std::string table(std::size_t max_rows = 0) const;

 private:
  static std::size_t index_of(const CostSite& s) {
    return (static_cast<std::size_t>(s.layer) * kCostActivityCount +
            static_cast<std::size_t>(s.activity)) *
               kSizeClassCount +
           size_class_of(s.bytes);
  }

  bool enabled_ = false;
  std::array<Bucket,
             std::size_t{kCostLayerCount} * kCostActivityCount *
                 kSizeClassCount>
      buckets_{};
};

}  // namespace dgiwarp::telemetry
