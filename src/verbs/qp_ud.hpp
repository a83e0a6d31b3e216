// UD (unreliable/reliable datagram) queue pair — the datagram-iWARP engine.
//
// One UD QP serves any number of peers: work requests carry destination
// addresses and completions report sources (paper §IV.B item 4). The QP
// binds one UDP port; segments up to 64 KB travel as single datagrams (the
// kernel IP layer fragments them), larger messages are segmented by the
// stack. MPA does not exist on this path.
//
// Loss handling follows the paper's relaxed rules: CRC failures, missing
// segments and expired messages are *reported* (stats + error completions
// that recover buffers) but never move the QP to Error.
#pragma once

#include <map>

#include "ddp/reassembly.hpp"
#include "verbs/device.hpp"

namespace dgiwarp::verbs {

class UdQueuePair final : public QueuePair,
                          public std::enable_shared_from_this<UdQueuePair> {
 public:
  ~UdQueuePair() override;

  /// Post kSend / kSendSE / kWriteRecord (and kRdmaRead when the device
  /// enables the UD-read extension). wr.remote addresses the target.
  Status post_send(const SendWr& wr) override;

  u16 local_port() const;
  host::Endpoint local_ep() const;

  /// Largest message this QP accepts in one WR (stack-level segmentation
  /// bounds it only by header arithmetic; effectively 4 GB).
  std::size_t max_message_size() const { return 0xFFFF0000u; }

 private:
  friend class Device;
  UdQueuePair(Device& dev, const UdQpAttr& attr, host::UdpSocket* socket);

  void on_datagram(host::Endpoint src, Bytes data, bool tainted);
  void handle_untagged(host::Endpoint src, const ddp::ParsedSegment& seg,
                       rdmap::Opcode op);
  void handle_write_record(host::Endpoint src, const ddp::ParsedSegment& seg);
  void handle_read_request(host::Endpoint src, const ddp::ParsedSegment& seg);
  void handle_read_response(host::Endpoint src, const ddp::ParsedSegment& seg);
  void send_terminate(host::Endpoint dst, rdmap::TermError err, u32 context);
  /// Build one segment (DDP CRC per DeviceConfig::ud_crc) and send it as
  /// one datagram.
  void transmit_segment(const host::Endpoint& dst, const ddp::SegmentHeader& h,
                        ConstByteSpan payload);
  /// transmit_segment for a data segment (Send, Write-Record, Read
  /// Response), charging its build, copy and CRC.
  void send_data_segment(const host::Endpoint& dst,
                         const ddp::SegmentHeader& h, ConstByteSpan payload);
  std::size_t max_segment_payload() const;
  void ensure_gc();
  void run_gc();

  host::UdpSocket* socket_;
  std::unique_ptr<rd::ReliableDatagram> rd_;
  ddp::UntaggedReassembler reasm_;
  /// Per-destination MSN for untagged sends (keyed by endpoint+QPN).
  std::map<std::pair<host::Endpoint, u32>, u32> next_msn_;
  /// Outstanding UD RDMA Reads (extension): read id -> pending state.
  struct PendingRead {
    u64 wr_id = 0;
    ByteSpan sink;
    u32 remaining = 0;
    bool signaled = true;
    TimeNs deadline = 0;
  };
  std::map<u32, PendingRead> pending_reads_;
  bool gc_armed_ = false;
  // verbs.ud.* counters, summed over every UD QP of the Simulation.
  telemetry::Counter& segments_tx_;
  telemetry::Counter& segments_rx_;
  telemetry::Counter& crc_drops_;
  telemetry::Counter& crc_escapes_;  // corrupted segments accepted (taint)
  telemetry::Counter& parse_rejects_;  // malformed segments (non-CRC failure)
  telemetry::Counter& no_buffer_drops_;
  telemetry::Counter& expired_messages_;  // send/recv messages that timed out
  telemetry::Counter& placement_errors_;
  telemetry::Counter& terminates_rx_;
  // Segments that arrived on a CE-marked (ECN) frame. Plain UD has no ACK
  // channel to echo them, so this is the victim-side visibility. Fetched at
  // the first mark, so fabrics without marking thresholds add no key.
  telemetry::Counter* ecn_rx_ = nullptr;
};

}  // namespace dgiwarp::verbs
