// Congestion-control subsystem: end-host rate control for the datagram
// transports (RD/UD), driven by fabric congestion signals.
//
// The paper's transports have no congestion window — fine on the 2-node
// testbed, fatal on the leaf-spine fabric where K:1 incast across an
// oversubscribed trunk collapses into queue overflow and RTO storms. This
// layer closes the loop:
//
//   Link output queue >= ecn_threshold            (simnet/link.cpp)
//     -> Frame::ecn congestion-experienced bit    (simnet/packet.hpp)
//     -> HostCtx::rx_ecn ambient flag up IP/UDP   (hoststack/ip.hpp)
//     -> RD receiver echoes a CNP flag on ACKs    (rd/reliable.cpp)
//     -> sender's RateController paces the flow   (this file)
//
// Two controllers are provided, selectable via RdConfig::cc_mode:
//
//  * kDcqcn — DCQCN-flavoured (SIGCOMM'15): per-flow rate R with an EWMA
//    congestion estimate alpha. Each CNP does a multiplicative decrease
//    R *= (1 - alpha/2) and snapshots the target rate Rt; two Simulation
//    timers then decay alpha and recover R towards Rt with fast-recovery
//    averaging followed by additive / hyper-additive increase. Both timers
//    self-disarm (alpha decays to ~0, R snaps to line rate), so an idle
//    controller schedules nothing and Simulation::run() drains.
//  * kTimely — TIMELY-flavoured (SIGCOMM'15): no fabric signal needed; the
//    RTT gradient (EWMA of successive ACK RTT samples, normalised by
//    kTimelyMinRtt) drives additive increase below kTimelyTLow /
//    gradient-proportional multiplicative decrease above. Entirely
//    sample-driven: no timers.
//
// Everything runs on the deterministic Simulation clock and plain IEEE
// doubles — same seed, same rates, byte-identical metrics. The controller
// is only constructed when cc_mode != kOff, so default runs create none of
// the cc.* registry keys and their metrics JSON is unchanged.
#pragma once

#include <cstddef>
#include <map>

#include "simnet/simulation.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::cc {

enum class CcMode : u8 {
  kOff = 0,    // no pacing, no echo — the pre-CC transport behaviour
  kDcqcn,      // ECN marks -> CNP echo on ACKs -> MD + timer recovery
  kTimely,     // RTT-gradient rate control from ACK samples
};

const char* cc_mode_name(CcMode m);

/// Controller constants. They are scaled for the 10GE fabric (LinkParams
/// defaults): microsecond-scale RTTs, queue build-up of tens of frames at
/// the trunk.
inline constexpr double kLineRateBps = 10e9;  // rate ceiling (line rate)
inline constexpr double kMinRateBps = 50e6;   // rate floor (never pace to 0)
// Ethernet + IP + UDP framing bytes added below RD, so pacing at
// kLineRateBps matches what the wire actually carries per packet.
inline constexpr std::size_t kWireOverheadBytes = 66;

// --- DCQCN ---
inline constexpr double kDcqcnG = 1.0 / 16.0;       // alpha EWMA gain
inline constexpr int kDcqcnFastRecoveryRounds = 5;  // R=(R+Rt)/2 before AI
inline constexpr double kDcqcnAiBps = 40e6;         // additive increase of Rt
inline constexpr double kDcqcnHaiBps = 400e6;       // hyper-AI, deep recovery
inline constexpr int kDcqcnHaiAfterRounds = 5;      // AI rounds before HAI
// Receiver-side CNP coalescing: at most one echo per peer per interval
// (consumed by the RD receiver).
inline constexpr TimeNs kCnpInterval = 50 * kMicrosecond;

// --- TIMELY ---
inline constexpr TimeNs kTimelyTLow = 20 * kMicrosecond;    // below: increase
inline constexpr TimeNs kTimelyTHigh = 70 * kMicrosecond;   // above: decrease
inline constexpr TimeNs kTimelyMinRtt = 10 * kMicrosecond;  // gradient norm
inline constexpr double kTimelyEwmaAlpha = 0.46;  // RTT-diff EWMA weight
inline constexpr double kTimelyAddBps = 40e6;     // additive increase step

/// The tuning knobs the incast bench varies; everything else is a
/// constant above.
struct CcParams {
  TimeNs dcqcn_alpha_timer = 55 * kMicrosecond;  // alpha decay period
  TimeNs dcqcn_rate_timer = 300 * kMicrosecond;  // recovery step period
  double timely_beta = 0.8;  // multiplicative-decrease gain
};

/// Per-peer token-bucket rate limiter plus the DCQCN/Timely update rules.
/// One instance serves every flow of one RD endpoint; flows are keyed by an
/// opaque u64 (RD uses the packed peer endpoint). Flows start at line rate
/// and only deviate once congestion feedback arrives, so an uncongested
/// sender is paced at exactly the NIC's own serialization rate.
class RateController {
 public:
  RateController(sim::Simulation& sim, CcMode mode, CcParams params);

  CcMode mode() const { return mode_; }

  /// Reserve wire time for one packet of `packet_bytes` (transport bytes;
  /// kWireOverheadBytes is added here) on `flow`. Returns the earliest
  /// time the packet may enter the stack: now() when the bucket has room,
  /// later when the flow is paced. The reservation is consumed — callers
  /// must send (or deliberately waste the slot).
  TimeNs reserve_send(u64 flow, std::size_t packet_bytes);

  /// DCQCN: a CNP echo arrived for `flow`. No-op in other modes.
  void on_cnp(u64 flow);

  /// TIMELY: a clean (never-retransmitted) ACK RTT sample for `flow`.
  /// No-op in other modes.
  void on_rtt_sample(u64 flow, TimeNs rtt);

  /// Current sending rate of `flow` (line rate for unknown flows).
  double rate_bps(u64 flow) const;

  u64 rate_decreases() const { return rate_decreases_; }

 private:
  struct Flow {
    double rate = 0;        // current rate R (bps)
    double target = 0;      // DCQCN target rate Rt
    double alpha = 0;       // DCQCN congestion estimate
    int recovery_rounds = 0;  // rate-timer ticks since the last CNP
    bool alpha_armed = false;  // alpha-decay timer outstanding
    bool rate_armed = false;   // recovery timer outstanding
    TimeNs next_tx = 0;     // token bucket: earliest next admission
    // TIMELY gradient state.
    double rtt_diff_ns = 0;
    TimeNs prev_rtt = 0;
    bool have_rtt = false;
  };

  Flow& flow(u64 key);
  void set_rate(u64 key, Flow& f, double r);
  void alpha_tick(u64 key);
  void rate_tick(u64 key);

  sim::Simulation& sim_;
  CcMode mode_;
  CcParams params_;
  std::map<u64, Flow> flows_;
  telemetry::Counter& cnps_;  // cc.cnps
  u64 rate_decreases_ = 0;
};

}  // namespace dgiwarp::cc
