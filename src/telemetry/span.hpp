// Causal message-lifecycle spans: one span per verbs/isock operation,
// carried across DDP segmentation, the RD/UDP/TCP transports, simnet frame
// transit and remote placement, ended at CQ completion (or left open when
// the message died). Each hop appends a virtual-time-stamped stage record,
// so a finished span IS the per-message latency decomposition the paper
// argues from: stack-tx / queueing / wire / retransmit-stall / wakeup /
// stack-rx.
//
// Cost discipline matches the trace ring (trace.hpp): tracking is DISABLED
// by default, begin() returns the null span id 0 when disabled, and every
// stage()/end() call on span id 0 is a single predictable branch.
//
// Because one Simulation hosts both end hosts and the switch, the receive
// side appends stages to the same span object the sender began — only the
// span id rides frames (sim::Frame::span), never any wire format.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace dgiwarp::telemetry {

/// What kind of operation a span covers (used for labels/grouping only;
/// stages are the ground truth).
enum class SpanKind : u8 {
  kMessage = 0,  // a verbs work request (send/write/read/write-record)
  kIsock,        // an isock sendto()/send() call
  kRetransmit,   // child span: one retransmission of a datagram
};

/// Per-hop stage vocabulary. Operands a/b are stage-specific (documented
/// inline); timestamps come from the owning tracker's virtual clock.
enum class Stage : u8 {
  kPostSend = 0,  // a = wr_id, b = message bytes
  kSegmentTx,     // DDP segment built; a = message offset, b = segment bytes
  kTransportTx,   // transport accepted the datagram/range; a = sequence
  kNicTx,         // frame handed to the NIC; a = frame id
  kWireTx,        // serialization onto the link began; a = frame id
  kWireRx,        // frame delivered at the far NIC; a = frame id
  kDropped,       // frame dropped by a fault model; a = frame id
  kRetransmit,    // a retransmission fired; a = sequence, b = retry count
  kRxWakeup,      // receiver wakeup timer fired
  kRxDeliver,     // kernel rx processing done, payload at the socket layer
  kTransportRx,   // transport accepted + ordered the datagram; a = sequence
  kSegmentRx,     // DDP segment parsed; a = message offset
  kRecvMatch,     // untagged message matched a posted recv; a = wr_id
  kPlacement,     // payload placed in user memory; a = bytes
  kCqComplete,    // completion pushed to the CQ; a = wr_id, b = byte_len
  kGiveUp,        // transport abandoned the message; a = sequence
};

/// Keep in sync with Stage: one past the last enumerator. A separate
/// constant (not a kCount enumerator) so exhaustive switches over Stage
/// stay -Wswitch-clean.
inline constexpr u8 kStageCount = 16;

const char* stage_name(Stage s);

/// Latency-breakdown buckets. Each inter-stage interval of a span is
/// attributed to exactly one phase (by the stage that ENDS it — see
/// phase_of), so the per-phase sums reconstruct the end-to-end latency
/// exactly, to the nanosecond.
enum class SpanPhase : u8 {
  kStackTx = 0,     // verbs post, DDP segmentation, kernel tx processing
  kQueueing,        // transport-window wait + NIC/link queue wait
  kWire,            // serialization + propagation (+ jitter/reorder delay)
  kRetransmitStall, // waiting on a retransmission to fire
  kWakeup,          // receiver scheduler wakeup latency
  kStackRx,         // kernel rx, transport ordering, placement, completion
};

inline constexpr u8 kSpanPhaseCount = 6;

const char* span_phase_name(SpanPhase p);

/// Which phase an interval ENDING at stage `s` belongs to. kPostSend never
/// ends an interval (it is the first stage); mapped to kStackTx for safety.
SpanPhase phase_of(Stage s);

struct StageRecord {
  Stage stage = Stage::kPostSend;
  TimeNs t = 0;
  u64 a = 0;
  u64 b = 0;
};

struct Span {
  u64 id = 0;
  u64 parent = 0;  // 0 = root
  SpanKind kind = SpanKind::kMessage;
  const char* label = "";  // static string supplied at begin()
  u32 origin = 0;          // link address of the node that began the span
  u64 bytes = 0;           // message payload bytes
  TimeNs start = 0;
  TimeNs end = 0;
  bool ended = false;
  bool completed = false;  // ended with a successful completion
  std::vector<StageRecord> stages;
};

/// Per-span latency decomposition: ns attributed to each SpanPhase.
/// Invariant (tested): sum over phases == span.end - span.start, exactly.
struct SpanBreakdown {
  TimeNs phase_ns[kSpanPhaseCount] = {};
  TimeNs total() const {
    TimeNs t = 0;
    for (TimeNs p : phase_ns) t += p;
    return t;
  }
  TimeNs operator[](SpanPhase p) const {
    return phase_ns[static_cast<u8>(p)];
  }
};

/// Partition [span.start, span.end] into intervals between consecutive
/// stage timestamps and attribute each to phase_of(the stage ending it).
/// Exact by construction; stages stamped outside [start, end] are clamped.
SpanBreakdown breakdown(const Span& s);

/// The live span store. Owned by the telemetry Registry (one per
/// Simulation), which wires the virtual clock exactly as it does for the
/// trace ring — spans obtained from Registry::spans() always stamp real
/// virtual time; a standalone SpanTracker (like a standalone TraceRing)
/// stamps 0 by design.
class SpanTracker {
 public:
  static constexpr std::size_t kDefaultMaxFinished = 1 << 16;

  /// Start tracking. Re-enabling clears all live and finished spans.
  void enable(std::size_t max_finished = kDefaultMaxFinished);
  bool enabled() const { return enabled_; }

  /// Open a root span. Returns the null id 0 when disabled (all other
  /// calls ignore id 0, so call sites never need their own guard).
  /// `label` must point at a static string.
  u64 begin(SpanKind kind, const char* label, u32 origin, u64 bytes,
            u64 a = 0);

  /// Open a child span (e.g. one retransmission of a parent message).
  /// Returns 0 when disabled or `parent` is 0/unknown.
  u64 child(u64 parent, SpanKind kind, const char* label);

  /// Append a stage record stamped with the current virtual time.
  /// No-op for id 0, unknown ids, and already-ended spans.
  void stage(u64 id, Stage s, u64 a = 0, u64 b = 0) {
    if (id == 0 || !enabled_) return;
    stage_at(id, s, clock_ ? *clock_ : 0, a, b);
  }

  /// Same, with an explicit timestamp — for stages whose time is known at
  /// a different event than the recording one (e.g. link serialization
  /// start vs. the synchronous transmit() call).
  void stage_at(u64 id, Stage s, TimeNs t, u64 a = 0, u64 b = 0);

  /// Close a span; it moves to the finished list (bounded: once
  /// max_finished is reached further finishes are counted in
  /// finished_dropped() and discarded). No-op for id 0 / unknown ids.
  void end(u64 id, bool completed);

  /// Spans closed so far, in end order.
  const std::vector<Span>& finished() const { return finished_; }
  /// Drain everything: finished spans followed by still-live spans (left
  /// un-ended, so consumers can render incomplete lifecycles). Clears the
  /// tracker's stores; ids keep counting.
  std::vector<Span> take_all();

  /// Lookup by id across live + finished (tests/debugging).
  const Span* find(u64 id) const;

  u64 started() const { return started_; }
  std::size_t live_count() const { return live_.size(); }
  u64 finished_dropped() const { return finished_dropped_; }

 private:
  friend class Registry;
  void set_clock(const TimeNs* clock) { clock_ = clock; }

  bool enabled_ = false;
  u64 next_id_ = 1;
  u64 started_ = 0;
  u64 finished_dropped_ = 0;
  std::size_t max_finished_ = kDefaultMaxFinished;
  std::unordered_map<u64, Span> live_;
  std::vector<Span> finished_;
  const TimeNs* clock_ = nullptr;
};

}  // namespace dgiwarp::telemetry
