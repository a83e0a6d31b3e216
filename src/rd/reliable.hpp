// Reliable Datagram (RD) service: the paper's "reliable UDP" option.
//
// Applications that cannot tolerate loss (paper §IV.B: "can be supplemented
// by a reliability mechanism (like reliable UDP)") run their UD QPs over
// this layer. It preserves datagram boundaries while adding, per peer:
// sequencing, positive ACKs with retransmission, duplicate suppression and
// in-order delivery. Unlike TCP there is no connection state handshake and
// no byte-stream coupling — a single RD endpoint serves any number of
// peers, keeping the connectionless scalability story intact.
//
// Loss recovery (per peer, mirroring the RFC 6298-style machinery the TCP
// baseline already has in hoststack/tcp.cpp):
//  * adaptive RTO from SRTT/RTTVAR with exponential backoff and a cap
//    (RdConfig::adaptive_rto=false pins the fixed kInitialRto);
//  * cumulative ACKs piggybacked in the previously reserved header u32 —
//    one ACK can retire a whole window, and dup-ACKs of a stalled
//    cumulative point trigger fast retransmit of the first hole;
//  * give-up propagation: after max_retries the sender advertises a
//    GAP-SKIP so the receiver stops waiting for the abandoned sequence;
//    a receiver-side gap timeout covers the case where even the GAP-SKIP
//    is lost. Give-ups and holes are surfaced via rd.give_ups/rd.rx_gaps,
//    the kRdGiveUp/kRdRxGap trace events and a warning, never silently.
// Receiver memory is bounded: the reorder buffer is capped (kRxOooLimit)
// and accounted against the host MemLedger ("rd.rx_ooo"), and a sequence
// more than kMaxSeqAhead past the receive frontier is refused outright.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "cc/cc.hpp"
#include "hoststack/rtt.hpp"
#include "hoststack/udp.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::rd {

using host::Endpoint;

/// Initial RTO towards a peer with no RTT sample yet; the fixed RTO when
/// RdConfig::adaptive_rto is off.
inline constexpr TimeNs kInitialRto = 400 * kMicrosecond;
/// Floor of the adaptive RTO.
inline constexpr TimeNs kMinRto = 100 * kMicrosecond;
/// Receive horizon: a DATA seq or GAP-SKIP base more than this many
/// sequences past the receiver's next_expected is refused as wild
/// (rd.wild_rejects). The send window is far smaller.
inline constexpr u64 kMaxSeqAhead = 4096;
/// Most unacked datagrams per peer; later sends queue behind them.
inline constexpr std::size_t kWindow = 64;
/// Duplicate cumulative ACKs that trigger a fast retransmit of the hole.
inline constexpr int kDupAckThreshold = 3;
/// Reorder-buffer cap per peer, in datagrams.
inline constexpr std::size_t kRxOooLimit = 256;
/// Receiver-side stall fallback: a hole still open this long after data
/// parked behind it is skipped.
inline constexpr TimeNs kGapTimeout = kSecond;

struct RdConfig {
  bool adaptive_rto = true;    // SRTT/RTTVAR estimation + exponential backoff
  TimeNs max_rto = 50 * kMillisecond;   // adaptive-RTO / backoff ceiling
  int max_retries = 12;             // then the datagram is reported lost
  // Per-packet CRC32 over header+payload. A corrupted packet is silently
  // dropped (no ACK), so the normal RTO/fast-retransmit machinery recovers
  // it; without this, a damaged header could fake an ACK and retire data
  // that was never delivered. Off => corruption passes through (measured as
  // rd.crc_escapes via the simulator's taint oracle).
  bool crc = true;
  // Congestion control (src/cc/). kOff (default) is the pre-CC transport:
  // no pacing, no CNP echo, no cc.* registry keys — byte-identical output.
  // kDcqcn paces each peer with a DCQCN-style rate controller fed by CNP
  // echoes (CE-marked data -> echo flag on the next ACK, coalesced per
  // cc::kCnpInterval). kTimely paces from clean ACK RTT samples instead and
  // needs no fabric marking at all.
  cc::CcMode cc_mode = cc::CcMode::kOff;
  cc::CcParams cc;  // controller tuning, used when cc_mode != kOff
};

/// Per-endpoint RD view, read where one flow is compared with the others
/// (fig13's per-flow series, tests); each field also counts into the owning
/// Simulation's registry under rd.* (retransmits maps to "rd.retries").
struct RdStats {
  telemetry::Metric retransmits;
  telemetry::Metric fast_retransmits;  // dup-ACK-triggered (subset of retries)
  telemetry::Metric duplicates;
  telemetry::Metric acks_tx;
  telemetry::Metric acks_rx;
  telemetry::Metric give_ups;   // datagrams dropped after max_retries
  telemetry::Metric gap_skips_tx;  // GAP-SKIP advertisements sent
  telemetry::Metric rx_gaps;    // sequences the receiver skipped (holes)
  telemetry::Metric rx_ooo_drops;  // datagrams refused by the reorder cap
  telemetry::Metric wild_rejects;   // seqs/skips beyond the plausible horizon
  // Congestion-control plumbing; bound into the registry (rd.ecn_rx /
  // rd.cnps_tx) only when cc_mode != kOff so default runs add no keys.
  telemetry::Metric ecn_rx;   // data packets that arrived CE-marked
  telemetry::Metric cnps_tx;  // ACKs sent with the CNP echo flag
};

/// Wraps a UdpSocket with reliability. The socket's receive handler is
/// taken over by this layer; consumers subscribe via on_datagram().
class ReliableDatagram {
 public:
  /// (peer, datagram, corruption taint). `tainted` is the simulator's
  /// oracle (see host::IpLayer::ProtocolHandler); with RD CRC on it can only
  /// be true for a CRC32 collision.
  using DatagramHandler = std::function<void(Endpoint, Bytes, bool tainted)>;

  ReliableDatagram(host::HostCtx& ctx, host::UdpSocket& socket,
                   RdConfig config = {});
  ~ReliableDatagram();

  void on_datagram(DatagramHandler h) { handler_ = std::move(h); }

  /// Send one datagram reliably. Queues beyond the window; fails only if
  /// the payload exceeds the UDP limit (minus the RD header).
  Status send_to(Endpoint dst, ConstByteSpan payload);

  /// Datagrams accepted but not yet acknowledged (all peers).
  std::size_t unacked() const;
  /// Datagrams buffered out-of-order at the receiver (all peers).
  std::size_t rx_buffered() const;

  const RdStats& stats() const { return stats_; }
  /// The rate controller, or nullptr when cc_mode == kOff.
  const cc::RateController* congestion() const { return cc_.get(); }
  // type(u8) + seq(u64) + cumulative ack(u32, truncated; see reliable.cpp)
  // + crc32(u32) over the whole packet with the CRC field zeroed. The top
  // bit of the type byte is the CNP echo flag (set on ACKs that carry a
  // congestion notification back to the sender); it is covered by the CRC
  // and masked off before type dispatch.
  static constexpr std::size_t kHeaderBytes = 17;
  static constexpr u8 kEcnEchoFlag = 0x80;

  /// Parsed view of one RD packet (fields + payload span into the wire
  /// buffer). Exposed for the wire fuzzer; on_raw goes through it too.
  struct PacketView {
    u8 type = 0;  // echo flag already masked off
    u64 seq = 0;
    u64 cum = 0;
    bool ecn_echo = false;  // CNP echo flag (meaningful on ACKs)
    ConstByteSpan body;
  };

  /// Parse and (when `check_crc`) CRC-validate one RD packet. Returns
  /// kCrcError on checksum mismatch, kProtocolError on short input or an
  /// unknown packet type; never reads past `wire`.
  static Result<PacketView> parse_packet(ConstByteSpan wire, bool check_crc);

  /// Stable per-peer key used with the RateController (cc.hpp) — public so
  /// observability rollups (per-flow rate series, rate-floor watchdogs) can
  /// ask the controller about a specific peer.
  static u64 flow_key(Endpoint ep) { return (u64{ep.ip} << 16) | ep.port; }

 private:
  struct Pending {
    Bytes wire;     // full RD packet, ready for retransmission
    int retries = 0;
    u64 timer_gen = 0;
    u64 pace_gen = 0;    // invalidates stale paced-transmit events
    TimeNs sent_at = 0;  // last (re)transmission time, for RTT sampling
    u64 span = 0;      // lifecycle span of the originating message
    u64 rtx_span = 0;  // open retransmit child span (0 when none)
  };
  struct QueuedDgram {
    u64 seq = 0;
    Bytes wire;
    u64 span = 0;  // lifecycle span captured at send_to time
  };
  struct PeerTx {
    u64 next_seq = 1;
    std::map<u64, Pending> unacked;
    std::deque<QueuedDgram> queued;  // waiting for window space
    host::RttEstimator rtt;
    TimeNs rto = 0;  // current timeout; kInitialRto until the first sample
    // Dup-ACK accounting for fast retransmit.
    u64 last_cum_ack = 0;
    int dup_acks = 0;
  };
  struct OooDgram {
    Bytes data;
    bool tainted = false;
    bool ecn = false;  // CE mark of the carrying packet (re-scoped on drain)
    u64 span = 0;  // lifecycle span from the carrying packet
  };
  struct PeerRx {
    u64 next_expected = 1;  // every seq below is delivered or skipped
    std::map<u64, OooDgram> ooo;  // reorder buffer (bounded)
    std::size_t ooo_bytes = 0;    // ledger-accounted reorder buffer bytes
    // Receiver-side gap fallback timer.
    bool gap_armed = false;
    // CNP echo state (DCQCN mode): a CE-marked data packet sets ce_pending
    // and the next ACK towards the peer carries the echo flag, coalesced to
    // one CNP per cc::kCnpInterval.
    bool ce_pending = false;
    bool cnp_ever = false;
    TimeNs last_cnp = 0;
  };

  void on_raw(Endpoint src, Bytes data, bool tainted);
  void on_ack(Endpoint src, u64 seq, u64 cum, bool ecn_echo);
  void on_data(Endpoint src, u64 seq, ConstByteSpan body, bool tainted);
  void on_gap_skip(Endpoint src, u64 base);
  /// Admission: paces through the rate controller when cc is on (deferring
  /// the actual send to transmit_now via a generation-guarded event),
  /// transmits immediately otherwise.
  void transmit(Endpoint dst, u64 seq, PeerTx& tx);
  /// The actual (re)transmission: cum/CRC patching, stats, socket send,
  /// RTO arming — always at the packet's real wire-entry time.
  void transmit_now(Endpoint dst, u64 seq, PeerTx& tx);
  void arm_timer(Endpoint dst, u64 seq);
  void on_timeout(Endpoint dst, u64 seq, u64 gen);
  void send_ack(Endpoint dst, u64 seq);
  void send_gap_skip(Endpoint dst, PeerTx& tx);
  void pump_queue(Endpoint dst, PeerTx& tx);
  void ack_one(Endpoint src, PeerTx& tx, u64 seq, bool rtt_eligible);
  void update_rtt(PeerTx& tx, TimeNs sample);
  void fast_retransmit(Endpoint src, PeerTx& tx, u64 seq);
  /// Retires every unacked datagram at or below `cum`. Returns true when
  /// `cum` advanced the peer's cumulative point (resetting its dup-ACKs).
  bool retire_through(Endpoint src, PeerTx& tx, u64 cum);
  u64 cum_for(Endpoint peer) const;  // cumulative ack to advertise
  /// Counts and refuses a DATA seq or GAP-SKIP base beyond the horizon.
  bool refuse_wild(const PeerRx& rx, u64 seq);
  /// Pops the datagram parked at next_expected, steps the cursor past it and
  /// delivers it; false (cursor untouched) if nothing is parked there.
  bool deliver_parked(Endpoint src, PeerRx& rx, bool step_before_handler);
  void skip_to(Endpoint src, PeerRx& rx, u64 base);
  void arm_gap_timer(Endpoint src);
  void account_ooo(PeerRx& rx, i64 delta);
  TimeNs peer_rto(const PeerTx& tx) const {
    return tx.rto > 0 ? tx.rto : kInitialRto;
  }
  host::HostCtx& ctx_;
  host::UdpSocket& socket_;
  RdConfig config_;
  std::unique_ptr<cc::RateController> cc_;  // null when cc_mode == kOff
  DatagramHandler handler_;
  std::map<Endpoint, PeerTx> tx_;
  std::map<Endpoint, PeerRx> rx_;
  RdStats stats_;
  telemetry::Counter& data_tx_;
  telemetry::Counter& data_rx_;
  telemetry::Counter& crc_drops_;    // packets failing the RD CRC (no ACK sent)
  telemetry::Counter& crc_escapes_;  // corrupted packets accepted (CRC off)
  telemetry::Counter& parse_rejects_;  // malformed packets (bad type / short)
  u64 timer_counter_ = 0;
  // rd.rx_ooo_bytes, fetched on first use.
  telemetry::Gauge* ooo_gauge_ = nullptr;
};

}  // namespace dgiwarp::rd
