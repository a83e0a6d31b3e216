// Bounded structured event trace: a fixed-capacity ring of (virtual time,
// kind, operands) tuples recording the cross-layer events the paper's loss
// analysis hinges on — link drops, RD retransmits, Write-Record placements,
// CQ completions.
//
// Tracing is DISABLED by default and must cost near zero on the hot path:
// record() is a single predictable branch when disabled.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace dgiwarp::telemetry {

/// Event vocabulary. One enumerator per cross-layer occurrence worth
/// correlating in a post-mortem; operands a/b are kind-specific.
enum class TraceKind : u8 {
  kLinkDrop = 0,          // a = frame id, b = wire bytes
  kLinkCorrupt,           // a = frame id, b = wire bytes (post-damage)
  kIpReassemblyExpired,   // a = ident, b = bytes received
  kTcpRetransmit,         // a = sequence, b = payload bytes
  kRdRetransmit,          // a = sequence, b = retry count
  kRdFastRetransmit,      // a = sequence, b = prior retry count
  kRdGiveUp,              // a = sequence, b = peer port
  kRdGapSkip,             // a = skip-to base, b = peer port
  kRdRxGap,               // a = first missing sequence, b = count skipped
  kWriteRecordChunk,      // a = message id, b = chunk bytes
  kWriteRecordComplete,   // a = message id, b = valid bytes
  kWriteRecordExpired,    // a = message id, b = valid bytes at expiry
  kCqCompletion,          // a = wr_id, b = byte_len
  kCqOverrun,             // a = wr_id, b = capacity
  kIsockDropNoSlot,       // a = source port, b = datagram bytes
  kEcnMark,               // a = frame id, b = queue depth at marking
  kCcCnp,                 // a = flow key, b = rate before reaction (bps)
  kCcRateChange,          // a = flow key, b = new rate (bps)
  kWatchdogTrip,          // a = WatchdogRule index, b = rule-specific value
};

/// Keep in sync with TraceKind: one past the last enumerator. This is a
/// separate constant rather than a trailing kCount enumerator so that
/// exhaustive switches over TraceKind (trace_kind_name) stay
/// -Wswitch-clean; the exhaustiveness test in telemetry_test.cpp asserts
/// that casting kTraceKindCount itself yields the "?" fallback, which
/// forces this constant to track the enum.
inline constexpr u8 kTraceKindCount = 19;

const char* trace_kind_name(TraceKind k);

struct TraceEvent {
  TimeNs t = 0;
  TraceKind kind = TraceKind::kLinkDrop;
  u64 a = 0;
  u64 b = 0;
};

/// Fixed-capacity ring: once full, the oldest event is overwritten and
/// counted in dropped(). Memory is bounded by capacity regardless of run
/// length. Timestamps come from the clock pointer wired by the owning
/// Registry (mirrored from the Simulation), so instrumented layers never
/// re-read Simulation::now().
///
/// Clock wiring: a ring obtained through Registry::trace() ALWAYS has the
/// clock wired — the Registry constructor points it at the registry's
/// mirrored virtual clock before anything can record, so a sink enabled
/// before the Simulation is even constructed still stamps real timestamps
/// once events execute (tested in telemetry_test.cpp). Only a standalone,
/// hand-constructed TraceRing has a null clock, and then record() stamps 0
/// by design (there is no time source to consult); set_clock is private to
/// Registry precisely so standalone rings cannot be half-wired.
class TraceRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Start recording. Re-enabling with a new capacity clears the ring.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable() { enabled_ = false; }

  bool enabled() const { return enabled_; }

  void record(TraceKind kind, u64 a = 0, u64 b = 0) {
    if (!enabled_) return;  // the whole hot-path cost when tracing is off
    push(TraceEvent{clock_ ? *clock_ : 0, kind, a, b});
  }

  /// Events currently held, oldest first.
  std::vector<TraceEvent> snapshot() const;

  std::size_t capacity() const { return cap_; }
  u64 recorded() const { return recorded_; }
  /// Events overwritten because the ring was full.
  u64 dropped() const { return recorded_ > cap_ ? recorded_ - cap_ : 0; }

 private:
  friend class Registry;
  void set_clock(const TimeNs* clock) { clock_ = clock; }
  void push(TraceEvent e);

  bool enabled_ = false;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // next write position
  std::vector<TraceEvent> ring_;
  u64 recorded_ = 0;
  const TimeNs* clock_ = nullptr;
};

}  // namespace dgiwarp::telemetry
