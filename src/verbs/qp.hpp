// Queue pair base class: receive queue management, completion plumbing, the
// state machine, and the RDMAP/DDP work that RC and UD QPs do identically.
// A subclass adds only what depends on its lower layer: how a segment is
// sent and charged, untagged reassembly, how a Read sink is filled, and its
// error policy.
#pragma once

#include <array>
#include <memory>

#include "common/lazy_deque.hpp"
#include "ddp/segmenter.hpp"
#include "rdmap/message.hpp"
#include "rdmap/terminate.hpp"
#include "rdmap/write_record.hpp"
#include "verbs/cq.hpp"
#include "verbs/memory.hpp"

namespace dgiwarp::verbs {

class Device;

class QueuePair {
 public:
  virtual ~QueuePair();

  u32 qpn() const { return qpn_; }
  QpState state() const { return state_; }
  ProtectionDomain& pd() { return pd_; }
  CompletionQueue& send_cq() { return send_cq_; }
  CompletionQueue& recv_cq() { return recv_cq_; }

  /// Post a receive buffer. UD completions against it will report the
  /// datagram source; the buffer must be large enough for any message the
  /// peer may send (a too-small buffer fails the message, not the QP).
  Status post_recv(RecvWr wr);

  /// Post a send-side work request (dispatch differs per QP type).
  virtual Status post_send(const SendWr& wr) = 0;

  /// Error-state transition. Per the paper's relaxed rules, UD QPs only
  /// enter Error on local faults, never because of datagram loss.
  void set_error(const Status& why);

 protected:
  /// Root lifecycle-span labels, one per WrOpcode (static strings: the span
  /// tracker keeps the pointer).
  using SpanLabels = std::array<const char*, 5>;
  static constexpr SpanLabels kUdSpanLabels = {
      "UD Send", "UD SendSE", "UD Write", "UD Read", "UD WriteRecord"};
  static constexpr SpanLabels kRcSpanLabels = {
      "RC Send", "RC SendSE", "RC Write", "RC Read", "RC WriteRecord"};

  QueuePair(Device& dev, ProtectionDomain& pd, CompletionQueue& send_cq,
            CompletionQueue& recv_cq, u32 qpn, const std::string& mem_category,
            std::size_t mem_bytes);

  /// The RDMAP operation a send WR starts, and the opcode of its send-side
  /// completion.
  static rdmap::Opcode rdmap_opcode(WrOpcode op);
  static WcOpcode wc_opcode(WrOpcode op);

  /// Post-send prologue: charge the verbs post and the RDMAP operation, and
  /// open the WR's root lifecycle span, labelled from `labels`, unless an
  /// upper layer (isock) already opened one for this message. The caller
  /// makes the returned span ambient (host::SpanScope) so it rides down to
  /// every frame the WR produces.
  u64 begin_post(const SendWr& wr, const SpanLabels& labels);

  /// DDP header of one segment of an RDMAP message. A tagged segment
  /// targets `stag` at `base_to` plus its message offset.
  ddp::SegmentHeader segment_header(rdmap::Opcode op, u32 msn, u32 msg_len,
                                    const ddp::SegmentPlan& seg, u32 stag = 0,
                                    u64 base_to = 0) const;

  /// A single-segment untagged control message: its header and payload.
  struct ControlMessage {
    ddp::SegmentHeader header;
    Bytes payload;
  };
  /// Read Request on QN1 for `wr`, identified by `read_id`: the requester
  /// places the response by read id, so the request names no sink.
  ControlMessage read_request_message(const SendWr& wr, u32 read_id) const;
  /// DDP-layer Terminate on QN2.
  ControlMessage terminate_message(rdmap::TermError err, u32 context) const;

  /// Log one placed Write-Record chunk from `src`. The chunk that carries
  /// its message's LAST segment raises the target-side record completion,
  /// which ends the message's lifecycle span.
  void record_write_chunk(host::Endpoint src, const ddp::ParsedSegment& seg);

  /// Pop the next posted receive WR (FIFO, like hardware RQs).
  std::optional<RecvWr> take_recv();
  /// Charge matching an untagged message of `msg_len` bytes to the posted
  /// receive `wr_id`, and mark the match on the ambient span.
  void charge_recv_match(u64 wr_id, u32 msg_len);

  /// `span`/`ends_span`: lifecycle span attached to the completion (see
  /// Completion). Pass a span with ends_span=true only for the completion
  /// that finishes the message (e.g. an RDMA Read once the response data
  /// has been placed).
  void complete_send(u64 wr_id, WcOpcode op, std::size_t bytes, Status status,
                     bool signaled, u64 span = 0, bool ends_span = false);
  void complete_recv(Completion c);

  Device& dev_;
  ProtectionDomain& pd_;
  CompletionQueue& send_cq_;
  CompletionQueue& recv_cq_;
  QpState state_ = QpState::kInit;
  u32 qpn_;
  /// Tagged message ids and read ids, from one counter.
  u32 next_msg_id_ = 1;
  LazyDeque<RecvWr> rq_;
  std::size_t rq_capacity_ = 4096;
  MemCharge mem_;
  /// Target-side Write-Record log (paper §IV.B.3; "also valid for a
  /// reliable transport", so RC QPs keep one too).
  rdmap::WriteRecordLog wr_log_;
};

}  // namespace dgiwarp::verbs
