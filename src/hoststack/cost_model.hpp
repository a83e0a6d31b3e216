// Calibrated CPU cost model.
//
// The paper's numbers come from a *software* iWARP implementation: user
// space verbs/RDMAP/DDP/MPA over kernel UDP/TCP on 2 GHz Opterons with a
// NetEffect 10GE NIC. Its throughput and latency are dominated by host CPU
// work (copies, CRC32, MPA marker insertion, kernel protocol processing),
// not by the 10 Gb/s wire. kCostModel, the one table every host charges, is
// the substitute for that testbed: every entry is the virtual-time price of
// one of those activities.
//
// Calibration targets (paper §VI.A):
//   - UD send/recv + Write-Record small-message latency  ~27-28 us
//   - RC send/recv + RDMA Write small-message latency    ~33 us
//   - UD peak bandwidth                                  ~240-250 MB/s
//   - RC send/recv peak bandwidth                        ~180 MB/s
//   - RC RDMA Write large-message bandwidth              ~70 MB/s
//   - RC slightly ahead of UD in the 16-64 KB latency band
// The calibration test (tests/calibration_test.cpp) asserts these bands.
#pragma once

#include "common/types.hpp"

namespace dgiwarp::host {

struct CostModel {
  // ---- kernel UDP/IP path -------------------------------------------------
  /// Per-datagram sendto(): syscall, UDP/IP header build, route lookup.
  TimeNs udp_sendto_fixed = 4'500;
  /// Per-datagram delivery to the application: softirq, socket wakeup,
  /// scheduling the user thread (CPU time consumed).
  TimeNs udp_deliver_fixed = 7'500;
  /// Per-datagram delivery cost when the receiving application is already
  /// busy (poll-mode: the datagram is queued and picked up by the app's
  /// receive loop without a scheduler wakeup).
  TimeNs udp_deliver_busy_fixed = 1'400;
  /// Interrupt + scheduler wakeup LATENCY on the receive path: time that
  /// passes before the delivery work starts, without occupying the CPU.
  /// Adds to every message's latency but not to streaming throughput
  /// (interrupts coalesce under load). Shared by the UDP and TCP paths.
  TimeNs rx_wakeup_delay = 12'000;
  /// Per-IP-fragment transmit cost (fragment header build + DMA descriptor).
  TimeNs ip_frag_tx = 260;
  /// Per-IP-fragment receive cost (interrupt amortised + reassembly insert).
  TimeNs ip_frag_rx = 340;
  /// Kernel <-> user copy, charged once on tx (user buffer -> skb) and once
  /// on rx (reassembled datagram -> user buffer). The rx copy happens only
  /// when the *whole* datagram is present, which is what denies UD
  /// intra-message pipelining for datagrams larger than the wire MTU.
  double kernel_copy_ns_per_byte = 1.0;

  // ---- kernel TCP path ----------------------------------------------------
  /// Per-send() syscall overhead.
  TimeNs tcp_send_fixed = 6'500;
  /// Per-MSS-segment transmit processing.
  TimeNs tcp_segment_tx = 950;
  /// Per-MSS-segment receive processing; data is handed to the user as soon
  /// as it is in order, so receive-side work pipelines with the sender.
  TimeNs tcp_segment_rx = 900;
  /// Per-delivery wakeup of the reading application.
  TimeNs tcp_deliver_fixed = 9'500;
  /// Processing a pure ACK at the sender.
  TimeNs tcp_ack_rx = 450;
  /// Building/sending a control segment (pure ACK, SYN, FIN, RST).
  TimeNs tcp_ctl_tx = 300;
  /// Kernel <-> user copy on the TCP path.
  double tcp_copy_ns_per_byte = 0.55;

  // ---- user-space iWARP stack ----------------------------------------------
  /// CRC32 over the DDP segment payload (always on for datagram-iWARP).
  double crc_ns_per_byte = 1.4;
  /// One user-space touch/copy of payload (placement or staging).
  double touch_ns_per_byte = 1.5;
  /// MPA marker insertion (RC tx): the stack walks the FPDU inserting a
  /// marker every 512 B, which in software costs a strided copy.
  double marker_insert_ns_per_byte = 0.5;
  /// MPA marker removal + stream re-compaction (RC rx).
  double marker_remove_ns_per_byte = 0.5;
  /// Fixed cost per FPDU framed/de-framed: marker bookkeeping, length and
  /// CRC field handling. "Packet marking ... is a high overhead activity"
  /// (paper §IV.A) — this is its per-message component.
  TimeNs mpa_frame_fixed = 400;
  /// Extra per-byte compaction on the RC *tagged* receive path: markers
  /// interrupt the payload so tagged data cannot be scattered directly into
  /// the registered region; the software stack stages and re-copies it.
  /// (This is what pushes RC RDMA Write down to the ~70 MB/s the paper
  /// measured while RC send/recv stays near 180 MB/s.)
  double rc_tagged_rx_ns_per_byte = 9.5;
  /// Fixed cost per DDP segment built or parsed.
  TimeNs ddp_segment_fixed = 320;
  /// Fixed cost per RDMAP operation (opcode dispatch, queue bookkeeping).
  TimeNs rdmap_op_fixed = 480;
  /// Posting a work request (verbs API entry + doorbell analogue).
  TimeNs verbs_post_fixed = 620;
  /// Polling one completion from a CQ.
  TimeNs cq_poll_fixed = 260;
  /// Matching an untagged segment to a posted receive WR.
  TimeNs recv_match_fixed = 380;
  /// Recording one Write-Record chunk in the target's validity log.
  TimeNs write_record_log_fixed = 290;
  /// Reliable-datagram (RD mode) per-packet bookkeeping: sequencing and
  /// retransmit-queue insert on tx, dedup/ordering on rx, ACK handling.
  TimeNs rd_tx_fixed = 260;
  TimeNs rd_rx_fixed = 260;
  TimeNs rd_ack_fixed = 180;

  // ---- memory footprints (bytes), used by the MemLedger (Figure 11) -------
  /// Kernel UDP socket slab object.
  std::size_t udp_sock_bytes = 1'280;
  /// Kernel TCP socket slab object (tcp_sock + inet hashing + timers).
  std::size_t tcp_sock_bytes = 2'560;
  /// Per-TCP-connection kernel send+receive buffer reservation (a loaded
  /// server's effective slab usage, not the sysctl maximum).
  std::size_t tcp_buf_bytes = 16 * 1024;
  /// Per-UDP-socket kernel buffer reservation (receive-queue slab share —
  /// the paper's UD SIP configuration keeps one UDP port per client, each
  /// with its own datagram queue reservation).
  std::size_t udp_buf_bytes = 11 * 1024;
  /// iWARP QP state blocks (queues, counters, protocol state). The RC QP
  /// additionally carries MPA stream state and per-connection DDP state,
  /// which is the memory-scalability point of the paper.
  std::size_t ud_qp_bytes = 4 * 1024;
  std::size_t rc_qp_bytes = 6 * 1024;
};

/// The calibrated table (Host::costs() and HostCtx::costs refer to it).
inline constexpr CostModel kCostModel{};

/// MTUs and limits shared by the stack.
inline constexpr std::size_t kWireMtu = 1500;       // Ethernet payload
inline constexpr std::size_t kIpHeaderBytes = 20;
inline constexpr std::size_t kUdpHeaderBytes = 8;
/// TCP header incl. the options block we always send (like timestamps).
inline constexpr std::size_t kTcpHeaderBytes = 30;
inline constexpr std::size_t kIpPayloadMtu = kWireMtu - kIpHeaderBytes;  // 1480
inline constexpr std::size_t kTcpMss = kIpPayloadMtu - kTcpHeaderBytes;  // 1450
/// Maximum UDP datagram payload (64 KB IP datagram minus headers).
inline constexpr std::size_t kMaxUdpPayload = 65'535 - kIpHeaderBytes -
                                              kUdpHeaderBytes;  // 65507

}  // namespace dgiwarp::host
