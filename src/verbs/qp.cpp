#include "verbs/qp.hpp"

#include "common/log.hpp"
#include "verbs/device.hpp"

namespace dgiwarp::verbs {

QueuePair::QueuePair(Device& dev, ProtectionDomain& pd,
                     CompletionQueue& send_cq, CompletionQueue& recv_cq,
                     u32 qpn, const std::string& mem_category,
                     std::size_t mem_bytes)
    : dev_(dev),
      pd_(pd),
      send_cq_(send_cq),
      recv_cq_(recv_cq),
      qpn_(qpn),
      mem_(dev.host().ledger_ptr(), mem_category,
           static_cast<i64>(mem_bytes)),
      wr_log_(dev.host().sim().telemetry()) {}

QueuePair::~QueuePair() = default;

rdmap::Opcode QueuePair::rdmap_opcode(WrOpcode op) {
  switch (op) {
    case WrOpcode::kSend: return rdmap::Opcode::kSend;
    case WrOpcode::kSendSE: return rdmap::Opcode::kSendSE;
    case WrOpcode::kWriteRecord: return rdmap::Opcode::kWriteRecord;
    case WrOpcode::kRdmaWrite: return rdmap::Opcode::kWrite;
    case WrOpcode::kRdmaRead: return rdmap::Opcode::kReadRequest;
  }
  return rdmap::Opcode::kSend;
}

WcOpcode QueuePair::wc_opcode(WrOpcode op) {
  switch (op) {
    case WrOpcode::kSend:
    case WrOpcode::kSendSE: return WcOpcode::kSend;
    case WrOpcode::kRdmaWrite: return WcOpcode::kRdmaWrite;
    case WrOpcode::kRdmaRead: return WcOpcode::kRdmaRead;
    case WrOpcode::kWriteRecord: return WcOpcode::kWriteRecord;
  }
  return WcOpcode::kSend;
}

u64 QueuePair::begin_post(const SendWr& wr, const SpanLabels& labels) {
  auto& c = dev_.host().costs();
  dev_.host().cpu().charge(c.verbs_post_fixed + c.rdmap_op_fixed,
                           {telemetry::CostLayer::kVerbs,
                            telemetry::CostActivity::kPost, wr.local.size()});
  auto& spans = dev_.host().sim().telemetry().spans();
  u64 span = dev_.host().ctx().active_span;
  if (span == 0 && spans.enabled())
    span = spans.begin(telemetry::SpanKind::kMessage,
                       labels[static_cast<std::size_t>(wr.opcode)],
                       dev_.host().addr(),
                       wr.opcode == WrOpcode::kRdmaRead ? wr.read_len
                                                        : wr.local.size(),
                       wr.wr_id);
  return span;
}

ddp::SegmentHeader QueuePair::segment_header(rdmap::Opcode op, u32 msn,
                                             u32 msg_len,
                                             const ddp::SegmentPlan& seg,
                                             u32 stag, u64 base_to) const {
  ddp::SegmentHeader h;
  h.set_opcode(static_cast<u8>(op));
  h.set_tagged(rdmap::is_tagged(op));
  h.set_last(seg.last);
  h.queue = static_cast<u8>(rdmap::untagged_queue(op));
  h.msn = msn;
  h.mo = static_cast<u32>(seg.offset);
  h.msg_len = msg_len;
  h.src_qpn = qpn_;
  if (h.tagged()) {
    h.stag = stag;
    h.to = base_to + seg.offset;
  }
  return h;
}

QueuePair::ControlMessage QueuePair::read_request_message(
    const SendWr& wr, u32 read_id) const {
  Bytes payload = rdmap::ReadRequestPayload{0, 0, wr.remote_stag,
                                            wr.remote_offset, wr.read_len}
                      .serialize();
  const auto len = static_cast<u32>(payload.size());
  return {segment_header(rdmap::Opcode::kReadRequest, read_id, len,
                         {0, len, true}),
          std::move(payload)};
}

QueuePair::ControlMessage QueuePair::terminate_message(
    rdmap::TermError err, u32 context) const {
  Bytes payload = rdmap::TerminateMessage{rdmap::TermLayer::kDdp,
                                          static_cast<u8>(err), context}
                      .serialize();
  const auto len = static_cast<u32>(payload.size());
  return {segment_header(rdmap::Opcode::kTerminate, 0, len, {0, len, true}),
          std::move(payload)};
}

void QueuePair::record_write_chunk(host::Endpoint src,
                                   const ddp::ParsedSegment& seg) {
  const auto res = wr_log_.record_chunk(
      src.ip, seg.header.src_qpn, seg.header.msn, seg.header.stag,
      seg.header.to, seg.header.mo, static_cast<u32>(seg.payload.size()),
      seg.header.msg_len, seg.header.last(),
      dev_.host().sim().now() + dev_.config().ud_message_timeout);
  if (res.message_completed) {
    auto rec = wr_log_.take_completed();
    Completion done;
    done.wr_id = 0;  // no WR was consumed — truly one-sided
    done.opcode = WcOpcode::kRecvWriteRecord;
    done.byte_len = rec->validity.valid_bytes();
    done.src = src;
    done.src_qpn = rec->src_qpn;
    done.stag = rec->stag;
    done.base_to = rec->base_to;
    done.validity = std::move(rec->validity);
    done.span = dev_.host().ctx().active_span;
    done.ends_span = true;
    complete_recv(std::move(done));
  }
}

Status QueuePair::post_recv(RecvWr wr) {
  if (state_ == QpState::kError)
    return Status(Errc::kInvalidArgument, "QP in error state");
  if (rq_.size() >= rq_capacity_)
    return Status(Errc::kResourceExhausted, "receive queue full");
  dev_.host().cpu().charge(dev_.host().costs().verbs_post_fixed,
                           {telemetry::CostLayer::kVerbs,
                            telemetry::CostActivity::kPost, 0});
  rq_.push_back(wr);
  return Status::Ok();
}

std::optional<RecvWr> QueuePair::take_recv() {
  if (rq_.empty()) return std::nullopt;
  RecvWr wr = rq_.front();
  rq_.pop_front();
  return wr;
}

void QueuePair::charge_recv_match(u64 wr_id, u32 msg_len) {
  dev_.host().cpu().charge(dev_.host().costs().recv_match_fixed,
                           {telemetry::CostLayer::kVerbs,
                            telemetry::CostActivity::kMatch, 0});
  dev_.host().sim().telemetry().spans().stage(dev_.host().ctx().active_span,
                                              telemetry::Stage::kRecvMatch,
                                              wr_id, msg_len);
}

void QueuePair::set_error(const Status& why) {
  if (state_ == QpState::kError) return;
  state_ = QpState::kError;
  DGI_DEBUG("qp", "QP %u -> Error (%s)", qpn_, why.to_string().c_str());
  // Flush outstanding receives with error completions so the application
  // can recover its buffers.
  while (auto wr = take_recv()) {
    Completion c;
    c.wr_id = wr->wr_id;
    c.status = Status(Errc::kConnectionReset, "QP flushed");
    c.opcode = WcOpcode::kRecv;
    c.qpn = qpn_;
    recv_cq_.push(std::move(c));
  }
}

void QueuePair::complete_send(u64 wr_id, WcOpcode op, std::size_t bytes,
                              Status status, bool signaled, u64 span,
                              bool ends_span) {
  if (!signaled && status.ok()) return;
  Completion c;
  c.wr_id = wr_id;
  c.status = status;
  c.opcode = op;
  c.byte_len = bytes;
  c.qpn = qpn_;
  c.span = span;
  c.ends_span = ends_span;
  // The completion becomes visible when the CPU finishes the posting work
  // already charged; schedule at the current CPU horizon. It holds the CQ,
  // which its owner may release before then (an isock socket closing).
  dev_.host().cpu().charge_then(
      0, [cq = send_cq_.shared_from_this(), c = std::move(c)]() mutable {
        cq->push(std::move(c));
      });
}

void QueuePair::complete_recv(Completion c) {
  c.qpn = qpn_;
  dev_.host().cpu().charge_then(
      0, [cq = recv_cq_.shared_from_this(), c = std::move(c)]() mutable {
        cq->push(std::move(c));
      });
}

}  // namespace dgiwarp::verbs
