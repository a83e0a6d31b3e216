#include "verbs/qp_ud.hpp"

#include <cstring>

#include "common/log.hpp"
#include "ddp/placement.hpp"

namespace dgiwarp::verbs {

UdQueuePair::UdQueuePair(Device& dev, const UdQpAttr& attr,
                         host::UdpSocket* socket)
    : QueuePair(dev, *attr.pd, *attr.send_cq, *attr.recv_cq, dev.alloc_qpn(),
                "iwarp.ud_qp", dev.host().costs().ud_qp_bytes),
      socket_(socket),
      segments_tx_(
          dev.host().sim().telemetry().counter("verbs.ud.segments_tx")),
      segments_rx_(
          dev.host().sim().telemetry().counter("verbs.ud.segments_rx")),
      crc_drops_(dev.host().sim().telemetry().counter("verbs.ud.crc_drops")),
      crc_escapes_(
          dev.host().sim().telemetry().counter("verbs.ud.crc_escapes")),
      parse_rejects_(
          dev.host().sim().telemetry().counter("verbs.ud.parse_rejects")),
      no_buffer_drops_(
          dev.host().sim().telemetry().counter("verbs.ud.no_buffer_drops")),
      expired_messages_(
          dev.host().sim().telemetry().counter("verbs.ud.expired_messages")),
      placement_errors_(
          dev.host().sim().telemetry().counter("verbs.ud.placement_errors")),
      terminates_rx_(
          dev.host().sim().telemetry().counter("verbs.ud.terminates_rx")) {
  if (attr.reliable) {
    rd_ = std::make_unique<rd::ReliableDatagram>(dev.host().ctx(), *socket_,
                                                 dev.config().rd);
    rd_->on_datagram([this](host::Endpoint src, Bytes data, bool tainted) {
      on_datagram(src, std::move(data), tainted);
    });
  } else {
    socket_->set_handler([this](host::Endpoint src, Bytes data, bool tainted) {
      on_datagram(src, std::move(data), tainted);
    });
  }
  state_ = QpState::kRts;  // datagram QPs need no connection setup
}

UdQueuePair::~UdQueuePair() {
  dev_.host().udp().close(socket_);
  socket_ = nullptr;
}

u16 UdQueuePair::local_port() const { return socket_->local_port(); }

host::Endpoint UdQueuePair::local_ep() const {
  return host::Endpoint{dev_.host().addr(), local_port()};
}

std::size_t UdQueuePair::max_segment_payload() const {
  std::size_t budget = dev_.config().max_ud_payload;
  if (rd_) budget -= rd::ReliableDatagram::kHeaderBytes;
  return ddp::ud_max_segment_payload(budget);
}

void UdQueuePair::transmit_segment(const host::Endpoint& dst,
                                   const ddp::SegmentHeader& h,
                                   ConstByteSpan payload) {
  const Bytes segment = ddp::build_segment(h, payload, dev_.config().ud_crc);
  segments_tx_.inc();
  if (rd_) {
    (void)rd_->send_to(dst, ConstByteSpan{segment});
  } else {
    (void)socket_->send_to(dst, ConstByteSpan{segment});
  }
}

void UdQueuePair::send_data_segment(const host::Endpoint& dst,
                                    const ddp::SegmentHeader& h,
                                    ConstByteSpan payload) {
  // Stack work: build the segment (one touch of the payload) + CRC.
  // Charged as three sequential attributable pieces — same total.
  auto& c = dev_.host().costs();
  auto& cpu = dev_.host().cpu();
  cpu.charge(c.ddp_segment_fixed,
             {telemetry::CostLayer::kDdp, telemetry::CostActivity::kSegment,
              payload.size()});
  cpu.charge(static_cast<TimeNs>(c.touch_ns_per_byte *
                                 static_cast<double>(payload.size())),
             {telemetry::CostLayer::kDdp, telemetry::CostActivity::kCopy,
              payload.size()});
  if (dev_.config().ud_crc)
    cpu.charge(static_cast<TimeNs>(c.crc_ns_per_byte *
                                   static_cast<double>(payload.size())),
               {telemetry::CostLayer::kDdp, telemetry::CostActivity::kCrc,
                payload.size()});
  // The segment rides the ambient span: the WR's root span when posted, the
  // requester's span for a Read Response (so its trace shows the full
  // request->response round trip).
  dev_.host().sim().telemetry().spans().stage(
      dev_.host().ctx().active_span, telemetry::Stage::kSegmentTx, h.mo,
      payload.size());
  transmit_segment(dst, h, payload);
}

Status UdQueuePair::post_send(const SendWr& wr) {
  if (state_ != QpState::kRts)
    return Status(Errc::kInvalidArgument, "QP not in RTS");
  if (wr.opcode == WrOpcode::kRdmaWrite)
    return Status(Errc::kUnsupported,
                  "plain RDMA Write is undefined over datagrams; "
                  "use kWriteRecord (paper §IV.B.3)");
  if (wr.opcode == WrOpcode::kRdmaRead && !dev_.config().enable_ud_read)
    return Status(Errc::kUnsupported,
                  "UD RDMA Read is a future-work extension; enable it via "
                  "DeviceConfig::enable_ud_read");
  if (wr.local.size() > max_message_size())
    return Status(Errc::kInvalidArgument, "message too large");

  host::SpanScope span_scope(dev_.host().ctx(),
                             begin_post(wr, kUdSpanLabels));

  // RDMA Read (extension): a single untagged request on QN1.
  if (wr.opcode == WrOpcode::kRdmaRead) {
    const u32 read_id = next_msg_id_++;
    pending_reads_[read_id] = PendingRead{
        wr.wr_id, wr.read_sink, wr.read_len, wr.signaled,
        dev_.host().sim().now() + dev_.config().ud_message_timeout};
    ensure_gc();
    const ControlMessage req = read_request_message(wr, read_id);
    dev_.host().cpu().charge(dev_.host().costs().ddp_segment_fixed,
                             {telemetry::CostLayer::kDdp,
                              telemetry::CostActivity::kSegment,
                              req.payload.size()});
    dev_.host().sim().telemetry().spans().stage(
        dev_.host().ctx().active_span, telemetry::Stage::kSegmentTx, read_id,
        req.payload.size());
    transmit_segment(wr.remote.ep, req.header, req.payload);
    // Completion is raised when the response data has been placed.
    return Status::Ok();
  }

  const rdmap::Opcode op = rdmap_opcode(wr.opcode);
  // Tagged: the Write-Record message id; untagged: the next MSN for this
  // destination.
  const u32 msn = rdmap::is_tagged(op)
                      ? next_msg_id_++
                      : ++next_msn_[{wr.remote.ep, wr.remote.qpn}];
  for (const auto& seg :
       ddp::plan_segments(wr.local.size(), max_segment_payload()))
    send_data_segment(wr.remote.ep,
                      segment_header(op, msn,
                                     static_cast<u32>(wr.local.size()), seg,
                                     wr.remote_stag, wr.remote_offset),
                      wr.local.subspan(seg.offset, seg.length));

  // "The source completes the operation at the moment that the last bit of
  // the message is passed to transport layer" (§IV.B.3). The source-side
  // completion does not end the lifecycle span — the message is still in
  // flight; the receive side finishes it.
  complete_send(wr.wr_id, wc_opcode(wr.opcode), wr.local.size(), Status::Ok(),
                wr.signaled);
  return Status::Ok();
}

void UdQueuePair::on_datagram(host::Endpoint src, Bytes data, bool tainted) {
  auto& c = dev_.host().costs();
  dev_.host().cpu().charge(c.ddp_segment_fixed,
                           {telemetry::CostLayer::kDdp,
                            telemetry::CostActivity::kDeliver, data.size()});
  if (dev_.config().ud_crc)
    dev_.host().cpu().charge(
        static_cast<TimeNs>(c.crc_ns_per_byte *
                            static_cast<double>(data.size())),
        {telemetry::CostLayer::kDdp, telemetry::CostActivity::kCrc,
         data.size()});

  auto parsed = ddp::parse_segment(ConstByteSpan{data}, dev_.config().ud_crc);
  if (!parsed.ok()) {
    if (parsed.code() == Errc::kCrcError)
      crc_drops_.inc();
    else
      parse_rejects_.inc();
    DGI_DEBUG("ud_qp", "segment dropped: %s",
              parsed.status().to_string().c_str());
    return;  // reported, QP stays up (paper §IV.B item 2)
  }
  segments_rx_.inc();
  // Congestion-experienced mark from the carrying frame (ambient, see
  // HostCtx::rx_ecn). verbs.ud.ecn_rx enters the registry at the first mark.
  if (dev_.host().ctx().rx_ecn) {
    if (!ecn_rx_)
      ecn_rx_ = &dev_.host().sim().telemetry().counter("verbs.ud.ecn_rx");
    ecn_rx_->inc();
  }
  // Accepted despite riding a corrupted frame, with no CRC to vouch for the
  // payload: the silent escape the corruption campaign measures. With the
  // CRC on, a passing check proves the segment bytes are intact (the damage
  // hit ignorable header bytes en route), so it is not an escape.
  if (tainted && !dev_.config().ud_crc) crc_escapes_.inc();
  const ddp::ParsedSegment& seg = *parsed;
  // The delivery scope (UDP/RD) re-established the span the segment's frame
  // carried; mark DDP segment acceptance against it.
  dev_.host().sim().telemetry().spans().stage(
      dev_.host().ctx().active_span, telemetry::Stage::kSegmentRx,
      seg.header.mo, seg.payload.size());

  auto opr = rdmap::parse_opcode(seg.header.opcode());
  if (!opr.ok()) {
    send_terminate(src, rdmap::TermError::kInvalidOpcode, seg.header.msn);
    return;
  }
  const rdmap::Opcode op = *opr;

  if (seg.header.tagged()) {
    switch (op) {
      case rdmap::Opcode::kWriteRecord:
        handle_write_record(src, seg);
        return;
      case rdmap::Opcode::kReadResponse:
        handle_read_response(src, seg);
        return;
      default:
        send_terminate(src, rdmap::TermError::kInvalidOpcode, seg.header.msn);
        return;
    }
  }

  switch (op) {
    case rdmap::Opcode::kSend:
    case rdmap::Opcode::kSendSE:
      handle_untagged(src, seg, op);
      return;
    case rdmap::Opcode::kReadRequest:
      handle_read_request(src, seg);
      return;
    case rdmap::Opcode::kTerminate: {
      terminates_rx_.inc();
      auto term = rdmap::TerminateMessage::parse(seg.payload);
      if (term.ok())
        DGI_DEBUG("ud_qp", "terminate from peer: layer=%u code=%u ctx=%u",
                  static_cast<unsigned>(term->layer), term->error_code,
                  term->context);
      return;  // UD: report only, no state change (paper §IV.B item 2)
    }
    default:
      send_terminate(src, rdmap::TermError::kInvalidOpcode, seg.header.msn);
      return;
  }
}

void UdQueuePair::handle_untagged(host::Endpoint src,
                                  const ddp::ParsedSegment& seg,
                                  rdmap::Opcode op) {
  auto& c = dev_.host().costs();
  const ddp::UntaggedKey key{src.ip, src.port, seg.header.src_qpn,
                             seg.header.msn};

  if (!reasm_.tracking(key)) {
    auto wr = take_recv();
    if (!wr) {
      no_buffer_drops_.inc();
      DGI_DEBUG("ud_qp", "no receive buffer; datagram dropped");
      return;
    }
    if (seg.header.msg_len > wr->buffer.size()) {
      placement_errors_.inc();
      Completion fail;
      fail.wr_id = wr->wr_id;
      fail.status = Status(Errc::kInvalidArgument, "receive buffer too small");
      fail.opcode = WcOpcode::kRecv;
      fail.src = src;
      fail.src_qpn = seg.header.src_qpn;
      complete_recv(std::move(fail));
      send_terminate(src, rdmap::TermError::kBufferTooSmall, seg.header.msn);
      return;
    }
    charge_recv_match(wr->wr_id, seg.header.msg_len);
    (void)reasm_.begin(key, seg.header.msg_len, wr->buffer, wr->wr_id,
                       dev_.host().sim().now() + dev_.config().ud_message_timeout);
    ensure_gc();
  }

  dev_.host().cpu().charge(
      static_cast<TimeNs>(c.touch_ns_per_byte *
                          static_cast<double>(seg.payload.size())),
      {telemetry::CostLayer::kDdp, telemetry::CostActivity::kPlacement,
       seg.payload.size()});
  auto offer = reasm_.offer(key, seg.header.mo, seg.payload);
  if (!offer.ok()) {
    placement_errors_.inc();
    return;
  }
  dev_.host().sim().telemetry().spans().stage(
      dev_.host().ctx().active_span, telemetry::Stage::kPlacement,
      seg.header.mo, seg.payload.size());
  if (offer->completed) {
    auto cookie = reasm_.complete(key);
    Completion done;
    done.wr_id = *cookie;
    done.opcode = WcOpcode::kRecv;
    done.byte_len = seg.header.msg_len;
    done.src = src;
    done.src_qpn = seg.header.src_qpn;
    done.solicited = op == rdmap::Opcode::kSendSE;
    // The last contributing segment's span finishes at the CQ: the message
    // is now fully placed and visible to the application.
    done.span = dev_.host().ctx().active_span;
    done.ends_span = true;
    complete_recv(std::move(done));
  }
}

void UdQueuePair::handle_write_record(host::Endpoint src,
                                      const ddp::ParsedSegment& seg) {
  auto& c = dev_.host().costs();
  dev_.host().cpu().charge(c.write_record_log_fixed,
                           {telemetry::CostLayer::kRdmap,
                            telemetry::CostActivity::kControl, 0});
  dev_.host().cpu().charge(
      static_cast<TimeNs>(c.touch_ns_per_byte *
                          static_cast<double>(seg.payload.size())),
      {telemetry::CostLayer::kRdmap, telemetry::CostActivity::kPlacement,
       seg.payload.size()});

  auto placed = ddp::place_tagged(pd_.stags(), seg.header.stag, seg.header.to,
                                  seg.payload);
  if (!placed.ok()) {
    placement_errors_.inc();
    const auto err = placed.code() == Errc::kAccessDenied
                         ? rdmap::TermError::kInvalidStag
                         : rdmap::TermError::kBaseBoundsViolation;
    send_terminate(src, err, seg.header.stag);
    return;
  }

  dev_.host().sim().telemetry().spans().stage(
      dev_.host().ctx().active_span, telemetry::Stage::kPlacement,
      seg.header.to, seg.payload.size());

  ensure_gc();
  record_write_chunk(src, seg);
}

void UdQueuePair::handle_read_request(host::Endpoint src,
                                      const ddp::ParsedSegment& seg) {
  if (!dev_.config().enable_ud_read) {
    send_terminate(src, rdmap::TermError::kInvalidOpcode, seg.header.msn);
    return;
  }
  auto req = rdmap::ReadRequestPayload::parse(seg.payload);
  if (!req.ok()) {
    send_terminate(src, rdmap::TermError::kCatastrophic, seg.header.msn);
    return;
  }
  auto data = ddp::read_tagged(pd_.stags(), req->src_stag, req->src_to,
                               req->length);
  if (!data.ok()) {
    placement_errors_.inc();
    send_terminate(src, rdmap::TermError::kInvalidStag, req->src_stag);
    return;
  }

  // Stream the response as tagged Read Response segments keyed by read id;
  // their STag is informational, as the requester places by read id.
  for (const auto& s : ddp::plan_segments(req->length, max_segment_payload()))
    send_data_segment(src,
                      segment_header(rdmap::Opcode::kReadResponse,
                                     seg.header.msn, req->length, s,
                                     req->src_stag),
                      data->subspan(s.offset, s.length));
}

void UdQueuePair::handle_read_response(host::Endpoint src,
                                       const ddp::ParsedSegment& seg) {
  (void)src;
  auto it = pending_reads_.find(seg.header.msn);
  if (it == pending_reads_.end()) return;  // expired or duplicate
  PendingRead& pr = it->second;
  if (seg.header.mo + seg.payload.size() > pr.sink.size()) {
    placement_errors_.inc();
    return;
  }
  auto& c = dev_.host().costs();
  dev_.host().cpu().charge(
      static_cast<TimeNs>(c.touch_ns_per_byte *
                          static_cast<double>(seg.payload.size())),
      {telemetry::CostLayer::kDdp, telemetry::CostActivity::kPlacement,
       seg.payload.size()});
  dev_.host().sim().telemetry().spans().stage(
      dev_.host().ctx().active_span, telemetry::Stage::kPlacement,
      seg.header.mo, seg.payload.size());
  std::memcpy(pr.sink.data() + seg.header.mo, seg.payload.data(),
              seg.payload.size());
  pr.remaining -= static_cast<u32>(
      std::min<std::size_t>(pr.remaining, seg.payload.size()));
  if (pr.remaining == 0) {
    // A read's lifecycle ends at the requester, once the response data has
    // been placed and the completion reaches the CQ.
    complete_send(pr.wr_id, WcOpcode::kRdmaRead, seg.header.msg_len,
                  Status::Ok(), pr.signaled, dev_.host().ctx().active_span,
                  /*ends_span=*/true);
    pending_reads_.erase(it);
  }
}

void UdQueuePair::send_terminate(host::Endpoint dst, rdmap::TermError err,
                                 u32 context) {
  const ControlMessage t = terminate_message(err, context);
  dev_.host().cpu().charge(dev_.host().costs().ddp_segment_fixed,
                           {telemetry::CostLayer::kDdp,
                            telemetry::CostActivity::kControl,
                            t.payload.size()});
  // Terminate is a reverse-direction control message: it must not carry the
  // span of the segment that provoked it.
  host::SpanScope scope(dev_.host().ctx(), 0);
  transmit_segment(dst, t.header, t.payload);
}

void UdQueuePair::ensure_gc() {
  if (gc_armed_) return;
  gc_armed_ = true;
  const TimeNs period = dev_.config().ud_message_timeout / 2;
  auto weak = weak_from_this();
  dev_.host().sim().after(period, [weak] {
    if (auto self = weak.lock()) self->run_gc();
  });
}

void UdQueuePair::run_gc() {
  gc_armed_ = false;
  const TimeNs now = dev_.host().sim().now();

  // Send/recv messages that never completed: recover the posted buffers
  // with an error completion ("recover buffers", Figure 2).
  for (const auto& ex : reasm_.expire_before(now)) {
    expired_messages_.inc();
    Completion c;
    c.wr_id = ex.cookie;
    c.status = Status(Errc::kMessageDropped, "message incomplete after timeout");
    c.opcode = WcOpcode::kRecv;
    c.byte_len = ex.received;
    complete_recv(std::move(c));
  }

  // Write-Records whose LAST segment was lost: "loss of this final packet
  // results in the loss of the entire message" — dropped, counted.
  wr_log_.expire_before(now);

  // Expired UD reads (extension): complete with error so the WR unblocks.
  for (auto it = pending_reads_.begin(); it != pending_reads_.end();) {
    if (it->second.deadline <= now) {
      complete_send(it->second.wr_id, WcOpcode::kRdmaRead, 0,
                    Status(Errc::kMessageDropped, "UD read response lost"),
                    true);
      it = pending_reads_.erase(it);
    } else {
      ++it;
    }
  }

  if (reasm_.inflight() > 0 || wr_log_.inflight() > 0 ||
      !pending_reads_.empty()) {
    ensure_gc();
  }
}

}  // namespace dgiwarp::verbs
