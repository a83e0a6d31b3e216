#include "verbs/qp_rc.hpp"

#include <cstring>

#include "common/log.hpp"
#include "ddp/placement.hpp"

namespace dgiwarp::verbs {

namespace {

// MPA connection setup frames (fixed 20 bytes): magic + flags.
constexpr std::size_t kHandshakeBytes = 20;
constexpr char kReqMagic[8] = {'M', 'P', 'A', ' ', 'R', 'E', 'Q', '\0'};
constexpr char kRepMagic[8] = {'M', 'P', 'A', ' ', 'R', 'E', 'P', '\0'};

Bytes make_handshake(bool request, const mpa::MpaConfig& cfg) {
  Bytes out;
  const char* magic = request ? kReqMagic : kRepMagic;
  append(out, {reinterpret_cast<const u8*>(magic), 8});
  WireWriter w(out);
  w.u8be(static_cast<u8>((cfg.use_markers ? 1 : 0) | (cfg.use_crc ? 2 : 0)));
  while (out.size() < kHandshakeBytes) w.u8be(0);
  return out;
}

}  // namespace

RcQueuePair::RcQueuePair(Device& dev, const RcQpAttr& attr)
    : QueuePair(dev, *attr.pd, *attr.send_cq, *attr.recv_cq, dev.alloc_qpn(),
                "iwarp.rc_qp", dev.host().costs().rc_qp_bytes),
      mpa_tx_(dev.config().mpa),
      mpa_rx_(dev.config().mpa),
      segments_tx_(
          dev.host().sim().telemetry().counter("verbs.rc.segments_tx")),
      segments_rx_(
          dev.host().sim().telemetry().counter("verbs.rc.segments_rx")),
      parse_rejects_(
          dev.host().sim().telemetry().counter("verbs.rc.parse_rejects")) {
  mpa_rx_.on_ulpdu(
      [this](ConstByteSpan ulpdu, bool tainted) { on_ulpdu(ulpdu, tainted); });
  auto& reg = dev_.host().sim().telemetry();
  stats_.fpdu_crc_failures.bind(reg.counter("verbs.rc.fpdu_crc_failures"));
  stats_.crc_escapes.bind(reg.counter("verbs.rc.crc_escapes"));
  stats_.terminates_rx.bind(reg.counter("verbs.rc.terminates_rx"));
}

RcQueuePair::~RcQueuePair() {
  if (sock_ && sock_->state() != host::TcpSocket::State::kClosed)
    sock_->abort();
}

void RcQueuePair::on_established(EstablishedHandler h) {
  on_established_ = std::move(h);
  if (state_ == QpState::kRts && on_established_) on_established_(Status::Ok());
}

host::Endpoint RcQueuePair::remote_ep() const {
  return sock_ ? sock_->remote() : host::Endpoint{};
}

void RcQueuePair::start_active(host::Endpoint remote) {
  active_ = true;
  auto sockr = dev_.host().tcp().connect(remote);
  if (!sockr.ok()) {
    set_error(sockr.status());
    if (on_established_) on_established_(sockr.status());
    return;
  }
  attach_socket(*sockr);
  auto weak = weak_from_this();
  sock_->on_connect([weak](Status st) {
    auto self = weak.lock();
    if (!self) return;
    if (!st.ok()) {
      self->set_error(st);
      if (self->on_established_) self->on_established_(st);
      return;
    }
    // TCP is up: send the MPA Request and wait for the Reply.
    Bytes req = make_handshake(true, self->dev_.config().mpa);
    (void)self->sock_->send(ConstByteSpan{req});
  });
}

void RcQueuePair::start_passive(
    host::TcpSocket::Ptr sock,
    std::function<void(std::shared_ptr<RcQueuePair>)> ready) {
  active_ = false;
  accept_ready_ = std::move(ready);
  self_hold_ = shared_from_this();
  attach_socket(std::move(sock));
}

void RcQueuePair::attach_socket(host::TcpSocket::Ptr sock) {
  sock_ = std::move(sock);
  auto weak = weak_from_this();
  sock_->on_data([weak](ConstByteSpan data, bool tainted) {
    if (auto self = weak.lock()) self->on_tcp_data(data, tainted);
  });
  sock_->on_writable([weak] {
    if (auto self = weak.lock()) self->drain_tx();
  });
  sock_->on_close([weak] {
    auto self = weak.lock();
    if (!self) return;
    if (self->state_ != QpState::kError)
      self->set_error(Status(Errc::kConnectionReset, "LLP stream closed"));
  });
}

void RcQueuePair::on_tcp_data(ConstByteSpan stream, bool tainted) {
  if (!handshake_done_) {
    append(handshake_buf_, stream);
    if (handshake_buf_.size() < kHandshakeBytes) return;

    const char* want = active_ ? kRepMagic : kReqMagic;
    if (std::memcmp(handshake_buf_.data(), want, 8) != 0) {
      fatal(Status(Errc::kProtocolError, "bad MPA handshake"));
      return;
    }
    if (!active_) {
      Bytes rep = make_handshake(false, dev_.config().mpa);
      (void)sock_->send(ConstByteSpan{rep});
    }
    Bytes rest =
        to_bytes(ConstByteSpan{handshake_buf_}.subspan(kHandshakeBytes));
    handshake_buf_.clear();
    on_handshake_complete();
    if (!rest.empty()) on_tcp_data(ConstByteSpan{rest}, tainted);
    return;
  }

  // Software MPA receive: marker removal + CRC validation over the stream.
  auto& c = dev_.host().costs();
  if (dev_.config().mpa.use_markers)
    dev_.host().cpu().charge(
        static_cast<TimeNs>(c.marker_remove_ns_per_byte *
                            static_cast<double>(stream.size())),
        {telemetry::CostLayer::kMpa, telemetry::CostActivity::kMarkers,
         stream.size()});
  if (dev_.config().mpa.use_crc)
    dev_.host().cpu().charge(
        static_cast<TimeNs>(c.crc_ns_per_byte *
                            static_cast<double>(stream.size())),
        {telemetry::CostLayer::kMpa, telemetry::CostActivity::kCrc,
         stream.size()});

  const Status st = mpa_rx_.consume(stream, tainted);
  if (!st.ok()) {
    ++stats_.fpdu_crc_failures;
    send_terminate(rdmap::TermError::kCatastrophic, 0);
    fatal(st);  // MPA stream errors are fatal on RC (paper §IV.B item 2)
  }
}

void RcQueuePair::on_handshake_complete() {
  handshake_done_ = true;
  state_ = QpState::kRts;
  if (on_established_) on_established_(Status::Ok());
  // handshake_done_ makes this the only call. The callback is kept for
  // the QP's life: it may own the CQs the QP completes into (an isock
  // listener's pair), so the QP never outlives them, adopted or not.
  if (accept_ready_) accept_ready_(shared_from_this());
  self_hold_.reset();  // the application owns the QP now (or it dies)
  drain_tx();
}

std::size_t RcQueuePair::max_segment_payload() const {
  // MULPDU: the largest DDP segment MPA can frame into one TCP MSS.
  return mpa::max_ulpdu_for(host::kTcpMss, dev_.config().mpa) -
         ddp::kHeaderBytes;
}

Status RcQueuePair::post_send(const SendWr& wr) {
  if (state_ == QpState::kError)
    return Status(Errc::kInvalidArgument, "QP in error state");

  // RC frames carry the root span via TcpSocket::tag_tx_span because the
  // drain into the socket is deferred past this scope.
  host::SpanScope span_scope(dev_.host().ctx(),
                             begin_post(wr, kRcSpanLabels));

  if (wr.opcode == WrOpcode::kRdmaRead) {
    const u32 read_id = next_msg_id_++;
    // The sink buffer must be registered for placement on response arrival.
    const auto mr = pd_.register_memory(wr.read_sink, kLocalWrite | kRemoteWrite);
    pending_reads_[read_id] =
        PendingRead{wr.wr_id, mr.stag, 0, wr.read_len, wr.signaled};
    const ControlMessage req = read_request_message(wr, read_id);
    enqueue_segment(req.header, req.payload, std::nullopt);
    return Status::Ok();
  }

  const rdmap::Opcode op = rdmap_opcode(wr.opcode);
  const u32 msn = rdmap::is_tagged(op) ? next_msg_id_++ : ++tx_msn_;
  for (const auto& seg :
       ddp::plan_segments(wr.local.size(), max_segment_payload())) {
    std::optional<TxCompletion> done;
    if (seg.last)
      done = TxCompletion{wr.wr_id, wc_opcode(wr.opcode), wr.local.size(),
                          wr.signaled, dev_.host().sim().now()};
    enqueue_segment(segment_header(op, msn, static_cast<u32>(wr.local.size()),
                                   seg, wr.remote_stag, wr.remote_offset),
                    wr.local.subspan(seg.offset, seg.length), done);
  }
  return Status::Ok();
}

void RcQueuePair::enqueue_segment(const ddp::SegmentHeader& h,
                                  ConstByteSpan payload,
                                  std::optional<TxCompletion> completes_wr) {
  auto& c = dev_.host().costs();
  // The ULPDU is the DDP segment (CRC is MPA's job on this path).
  const std::size_t ulpdu_len = ddp::kHeaderBytes + payload.size();

  // Software stack cost: segment build (one touch), marker insertion and
  // FPDU CRC over the framed bytes — charged as sequential attributable
  // pieces (same total).
  dev_.host().cpu().charge(c.ddp_segment_fixed,
                           {telemetry::CostLayer::kDdp,
                            telemetry::CostActivity::kSegment,
                            payload.size()});
  dev_.host().cpu().charge(c.mpa_frame_fixed,
                           {telemetry::CostLayer::kMpa,
                            telemetry::CostActivity::kSegment, ulpdu_len});
  dev_.host().cpu().charge(
      static_cast<TimeNs>(c.touch_ns_per_byte *
                          static_cast<double>(payload.size())),
      {telemetry::CostLayer::kDdp, telemetry::CostActivity::kCopy,
       payload.size()});
  if (dev_.config().mpa.use_markers)
    dev_.host().cpu().charge(
        static_cast<TimeNs>(c.marker_insert_ns_per_byte *
                            static_cast<double>(ulpdu_len)),
        {telemetry::CostLayer::kMpa, telemetry::CostActivity::kMarkers,
         ulpdu_len});
  if (dev_.config().mpa.use_crc)
    dev_.host().cpu().charge(
        static_cast<TimeNs>(c.crc_ns_per_byte *
                            static_cast<double>(ulpdu_len)),
        {telemetry::CostLayer::kMpa, telemetry::CostActivity::kCrc,
         ulpdu_len});

  segments_tx_.inc();
  ddp_header_.clear();
  h.serialize(ddp_header_);
  const std::size_t framed =
      mpa_tx_.frame(txbuf_, ConstByteSpan{ddp_header_}, payload);
  tx_total_abs_ += framed;
  // Associate the segment's stream bytes with the ambient lifecycle span:
  // both sides of the connection wrote exactly kHandshakeBytes of MPA
  // handshake before the first framed byte, so the framed-stream offset is
  // tx_total_abs_ shifted by that preamble.
  const u64 span = dev_.host().ctx().active_span;
  if (span != 0 && sock_) {
    sock_->tag_tx_span(kHandshakeBytes + tx_total_abs_, span);
    dev_.host().sim().telemetry().spans().stage(
        span, telemetry::Stage::kSegmentTx, tx_total_abs_, framed);
  }
  if (completes_wr) tx_marks_.emplace_back(tx_total_abs_, *completes_wr);
  // Batch the socket write: segments enqueued in the same event (e.g. an
  // RDMA Write plus its notifying Send) drain with one send() call.
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    auto weak = weak_from_this();
    dev_.host().sim().after(0, [weak] {
      if (auto self = weak.lock()) {
        self->drain_scheduled_ = false;
        self->drain_tx();
      }
    });
  }
}

void RcQueuePair::drain_tx() {
  if (!handshake_done_ || !sock_) return;
  while (tx_head_ < txbuf_.size()) {
    const std::size_t n =
        sock_->send(ConstByteSpan{txbuf_}.subspan(tx_head_));
    if (n == 0) break;  // socket buffer full; resume on_writable
    tx_head_ += n;
    tx_accepted_abs_ += n;
  }
  // Fire completions whose whole message has been accepted by the LLP.
  while (!tx_marks_.empty() && tx_marks_.front().first <= tx_accepted_abs_) {
    const TxCompletion& done = tx_marks_.front().second;
    // WR tx latency: post_send until the LLP accepted the last byte.
    if (!tx_latency_hist_)
      tx_latency_hist_ =
          &dev_.host().sim().telemetry().histogram("verbs.wr.tx_latency_us");
    tx_latency_hist_->add(
        static_cast<double>(dev_.host().sim().now() - done.posted_at) /
        1000.0);
    // "Passed to the LLP": the last byte was accepted by the TCP socket.
    complete_send(done.wr_id, done.op, done.bytes, Status::Ok(),
                  done.signaled);
    tx_marks_.pop_front();
  }
  // Reclaim consumed prefix once it dominates the buffer.
  if (tx_head_ > 1 << 20 && tx_head_ > txbuf_.size() / 2) {
    txbuf_.erase(txbuf_.begin(), txbuf_.begin() + static_cast<long>(tx_head_));
    tx_head_ = 0;
  }
}

void RcQueuePair::on_ulpdu(ConstByteSpan ulpdu, bool tainted) {
  auto& c = dev_.host().costs();
  dev_.host().cpu().charge(c.mpa_frame_fixed,
                           {telemetry::CostLayer::kMpa,
                            telemetry::CostActivity::kDeliver, ulpdu.size()});
  dev_.host().cpu().charge(c.ddp_segment_fixed,
                           {telemetry::CostLayer::kDdp,
                            telemetry::CostActivity::kDeliver, ulpdu.size()});

  auto parsed = ddp::parse_segment(ulpdu, /*with_crc=*/false);
  if (!parsed.ok()) {
    parse_rejects_.inc();
    send_terminate(rdmap::TermError::kCatastrophic, 0);
    fatal(parsed.status());
    return;
  }
  segments_rx_.inc();
  // Mark DDP segment acceptance against the span re-established from the
  // TCP delivery (the span of the last frame contributing to this chunk).
  dev_.host().sim().telemetry().spans().stage(
      dev_.host().ctx().active_span, telemetry::Stage::kSegmentRx,
      parsed->header.mo, parsed->payload.size());
  // Accepted despite riding a corrupted frame with no CRC vouching for the
  // bytes: a silent corruption escape. A passing MPA CRC proves the FPDU
  // was intact, so with the CRC on this does not count.
  if (tainted && !dev_.config().mpa.use_crc) ++stats_.crc_escapes;
  const ddp::ParsedSegment& seg = *parsed;
  auto opr = rdmap::parse_opcode(seg.header.opcode());
  if (!opr.ok()) {
    send_terminate(rdmap::TermError::kInvalidOpcode, seg.header.msn);
    fatal(opr.status());
    return;
  }
  if (seg.header.tagged()) {
    handle_tagged(seg, *opr);
  } else {
    handle_untagged(seg, *opr);
  }
}

void RcQueuePair::handle_untagged(const ddp::ParsedSegment& seg,
                                  rdmap::Opcode op) {
  auto& c = dev_.host().costs();
  switch (op) {
    case rdmap::Opcode::kSend:
    case rdmap::Opcode::kSendSE: {
      if (!active_recv_) {
        auto wr = take_recv();
        if (!wr) {
          // DDP spec: untagged message with no buffer is a fatal stream
          // error on a reliable LLP.
          send_terminate(rdmap::TermError::kBufferTooSmall, seg.header.msn);
          fatal(Status(Errc::kResourceExhausted, "no receive buffer"));
          return;
        }
        if (seg.header.msg_len > wr->buffer.size()) {
          Completion fail;
          fail.wr_id = wr->wr_id;
          fail.status =
              Status(Errc::kInvalidArgument, "receive buffer too small");
          fail.opcode = WcOpcode::kRecv;
          complete_recv(std::move(fail));
          send_terminate(rdmap::TermError::kBufferTooSmall, seg.header.msn);
          fatal(Status(Errc::kInvalidArgument, "receive buffer too small"));
          return;
        }
        charge_recv_match(wr->wr_id, seg.header.msg_len);
        active_recv_ = ActiveRecv{*wr, seg.header.msn, 0, seg.header.msg_len,
                                  op == rdmap::Opcode::kSendSE};
      }
      ActiveRecv& ar = *active_recv_;
      dev_.host().cpu().charge(
          static_cast<TimeNs>(c.touch_ns_per_byte *
                              static_cast<double>(seg.payload.size())),
          {telemetry::CostLayer::kDdp, telemetry::CostActivity::kPlacement,
           seg.payload.size()});
      std::memcpy(ar.wr.buffer.data() + seg.header.mo, seg.payload.data(),
                  seg.payload.size());
      ar.received += seg.payload.size();
      dev_.host().sim().telemetry().spans().stage(
          dev_.host().ctx().active_span, telemetry::Stage::kPlacement,
          seg.header.mo, seg.payload.size());
      if (seg.header.last()) {
        Completion done;
        done.wr_id = ar.wr.wr_id;
        done.opcode = WcOpcode::kRecv;
        done.byte_len = ar.msg_len;
        done.src = remote_ep();
        done.src_qpn = seg.header.src_qpn;
        done.solicited = ar.solicited;
        // The receive-side completion finishes the message lifecycle.
        done.span = dev_.host().ctx().active_span;
        done.ends_span = true;
        complete_recv(std::move(done));
        active_recv_.reset();
      }
      return;
    }
    case rdmap::Opcode::kReadRequest:
      respond_read(seg);
      return;
    case rdmap::Opcode::kTerminate: {
      ++stats_.terminates_rx;
      auto term = rdmap::TerminateMessage::parse(seg.payload);
      fatal(Status(Errc::kProtocolError,
                   term.ok() ? "peer sent Terminate" : "bad Terminate"));
      return;
    }
    default:
      send_terminate(rdmap::TermError::kInvalidOpcode, seg.header.msn);
      fatal(Status(Errc::kProtocolError, "unexpected untagged opcode"));
      return;
  }
}

void RcQueuePair::handle_tagged(const ddp::ParsedSegment& seg,
                                rdmap::Opcode op) {
  auto& c = dev_.host().costs();
  // Tagged placement on the software RC path pays the marker-compaction
  // penalty (cannot scatter the marker-interrupted payload directly).
  dev_.host().cpu().charge(
      static_cast<TimeNs>((c.touch_ns_per_byte + c.rc_tagged_rx_ns_per_byte) *
                          static_cast<double>(seg.payload.size())),
      {telemetry::CostLayer::kDdp, telemetry::CostActivity::kPlacement,
       seg.payload.size()});
  auto& spans = dev_.host().sim().telemetry().spans();
  const u64 span = dev_.host().ctx().active_span;

  switch (op) {
    case rdmap::Opcode::kWrite: {
      auto placed = ddp::place_tagged(pd_.stags(), seg.header.stag,
                                      seg.header.to, seg.payload);
      if (!placed.ok()) {
        send_terminate(rdmap::TermError::kBaseBoundsViolation,
                       seg.header.stag);
        fatal(placed.status());
        return;
      }
      // No target-side completion for plain RDMA Write: placement of the
      // last segment is the end of the message lifecycle.
      spans.stage(span, telemetry::Stage::kPlacement, seg.header.to,
                  seg.payload.size());
      if (seg.header.last()) spans.end(span, /*completed=*/true);
      return;
    }
    case rdmap::Opcode::kWriteRecord: {
      auto placed = ddp::place_tagged(pd_.stags(), seg.header.stag,
                                      seg.header.to, seg.payload);
      if (!placed.ok()) {
        send_terminate(rdmap::TermError::kBaseBoundsViolation,
                       seg.header.stag);
        fatal(placed.status());
        return;
      }
      dev_.host().cpu().charge(c.write_record_log_fixed,
                               {telemetry::CostLayer::kRdmap,
                                telemetry::CostActivity::kControl, 0});
      spans.stage(span, telemetry::Stage::kPlacement, seg.header.to,
                  seg.payload.size());
      record_write_chunk(remote_ep(), seg);
      return;
    }
    case rdmap::Opcode::kReadResponse: {
      auto it = pending_reads_.find(seg.header.msn);
      if (it == pending_reads_.end()) return;
      PendingRead& pr = it->second;
      auto placed = ddp::place_tagged(pd_.stags(), pr.sink_stag,
                                      pr.sink_to + seg.header.mo, seg.payload);
      if (!placed.ok()) {
        fatal(placed.status());
        return;
      }
      spans.stage(span, telemetry::Stage::kPlacement, seg.header.mo,
                  seg.payload.size());
      pr.remaining -= static_cast<u32>(
          std::min<std::size_t>(pr.remaining, seg.payload.size()));
      if (pr.remaining == 0) {
        (void)pd_.deregister(pr.sink_stag);
        // A read's lifecycle ends at the requester once the response data
        // has been placed and the completion reaches the CQ.
        complete_send(pr.wr_id, WcOpcode::kRdmaRead, seg.header.msg_len,
                      Status::Ok(), pr.signaled, span, /*ends_span=*/true);
        pending_reads_.erase(it);
      }
      return;
    }
    default:
      send_terminate(rdmap::TermError::kInvalidOpcode, seg.header.msn);
      fatal(Status(Errc::kProtocolError, "unexpected tagged opcode"));
      return;
  }
}

void RcQueuePair::respond_read(const ddp::ParsedSegment& seg) {
  auto req = rdmap::ReadRequestPayload::parse(seg.payload);
  if (!req.ok()) {
    fatal(req.status());
    return;
  }
  auto data =
      ddp::read_tagged(pd_.stags(), req->src_stag, req->src_to, req->length);
  if (!data.ok()) {
    send_terminate(rdmap::TermError::kInvalidStag, req->src_stag);
    fatal(data.status());
    return;
  }
  for (const auto& s : ddp::plan_segments(req->length, max_segment_payload()))
    enqueue_segment(segment_header(rdmap::Opcode::kReadResponse,
                                   seg.header.msn, req->length, s,
                                   req->src_stag),
                    data->subspan(s.offset, s.length), std::nullopt);
}

void RcQueuePair::send_terminate(rdmap::TermError err, u32 context) {
  // Never originate a Terminate from Error state: a corrupted Terminate
  // from the peer must not trigger a counter-Terminate (terminate loop).
  if (state_ == QpState::kError) return;
  if (!handshake_done_ || !sock_) return;
  // Terminate is a reverse-direction control message: do not let it tag the
  // stream with the span of the segment that provoked it.
  host::SpanScope scope(dev_.host().ctx(), 0);
  const ControlMessage t = terminate_message(err, context);
  enqueue_segment(t.header, t.payload, std::nullopt);
}

void RcQueuePair::fatal(const Status& why) {
  // RC error rules are the strict standard ones: the stream is torn down
  // and the QP moves to Error (contrast with UD's relaxed handling).
  if (state_ == QpState::kError) return;
  // Guard against self-destruction: self_hold_ may be the last reference
  // (passive QP failing before the app takes ownership).
  auto guard = shared_from_this();
  if (sock_ && sock_->state() != host::TcpSocket::State::kClosed) {
    if (handshake_done_) {
      // A Terminate queued just before this fatal() must actually reach the
      // peer (RDMAP teardown): flush it into the LLP and close gracefully —
      // an abort would RST and discard the send buffer.
      drain_tx();
      sock_->close();
    } else {
      sock_->abort();
    }
  }
  set_error(why);
  self_hold_.reset();
}

void RcQueuePair::disconnect() {
  if (sock_) sock_->close();
}

}  // namespace dgiwarp::verbs
