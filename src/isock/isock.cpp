#include "isock/isock.hpp"

#include "common/log.hpp"

namespace dgiwarp::isock {

namespace {

// Control tags for the Write-Record advert exchange. In Write-Record mode
// untagged (send/recv) traffic is control-only; in send/recv mode all
// untagged traffic is raw data and no tags are used.
constexpr u8 kCtlHello = 0x01;
constexpr u8 kCtlAdvert = 0x02;

// Stream message tags (first byte of every RC message): SDP-style credit
// flow control so a sender can never overrun the peer's posted receive
// buffers (each message consumes one posted buffer).
constexpr u8 kStreamData = 0x10;
constexpr u8 kStreamCredit = 0x11;

constexpr std::size_t kSocketCqCapacity = 1 << 14;
// Datagrams a socket without a handler holds for recvfrom(); beyond it
// they are dropped (isock.pool.rx_dropped_no_slot).
constexpr std::size_t kRxQueueLimit = 1024;

}  // namespace

ISockStack::ISockStack(verbs::Device& device, ISockConfig config)
    : dev_(device), cfg_(config), pd_(device.host()) {}

// Withdraws every callback that could still reach the stack, sending
// nothing: no FIN leaves and no counter moves. Completions already on their
// way land on CQs without a handler, and a pending credit flush or a
// passive QP that finishes its handshake later finds `alive_` expired. The
// stack's PD then releases the pools still registered in it.
ISockStack::~ISockStack() {
  for (auto& [fd, s] : socks_) {
    if (s.native) dev_.host().udp().close(s.native);
    if (s.listening) dev_.rc_stop_listening(s.listen_port);
    if (s.send_cq) s.send_cq->set_event_handler(nullptr);
    if (s.recv_cq) s.recv_cq->set_event_handler(nullptr);
  }
}

std::weak_ptr<const bool> ISockStack::alive_token() {
  if (!alive_) alive_ = std::make_shared<const bool>(true);
  return alive_;
}

ISockStack::Sock* ISockStack::find(int fd) {
  auto it = socks_.find(fd);
  return it == socks_.end() ? nullptr : &it->second;
}
const ISockStack::Sock* ISockStack::find(int fd) const {
  auto it = socks_.find(fd);
  return it == socks_.end() ? nullptr : &it->second;
}

Result<int> ISockStack::socket(SockType type, std::size_t pool_slots,
                               std::size_t slot_bytes) {
  if (!dgrams_tx_) {
    auto& reg = dev_.host().sim().telemetry();
    dgrams_tx_ = &reg.counter("isock.dgram.tx");
    dgrams_rx_ = &reg.counter("isock.dgram.rx");
    bytes_tx_ = &reg.counter("isock.bytes.tx");
    bytes_rx_ = &reg.counter("isock.bytes.rx");
    rx_dropped_no_slot_ = &reg.counter("isock.pool.rx_dropped_no_slot");
  }
  const int fd = next_fd_++;
  Sock s;
  s.type = type;
  s.pool_slots = pool_slots ? pool_slots : cfg_.pool_slots;
  s.slot_bytes = slot_bytes ? slot_bytes : cfg_.slot_bytes;
  socks_.emplace(fd, std::move(s));
  return fd;
}

Status ISockStack::bind(int fd, u16 port) {
  Sock* s = find(fd);
  if (!s) return Status(Errc::kInvalidArgument, "bad fd");
  if (s->bound) return Status(Errc::kInvalidArgument, "already bound");
  if (s->type == SockType::kDatagram) {
    if (Status st = setup_datagram(fd, *s, port); !st.ok()) return st;
  } else {
    s->listen_port = port;  // stream binding takes effect at listen()
  }
  s->bound = true;
  return Status::Ok();
}

u32 ISockStack::pool_stag(int fd) const {
  const Sock* s = find(fd);
  return s && s->ud ? s->pool_mr.stag : 0;
}

Status ISockStack::setup_datagram(int fd, Sock& s, u16 port) {
  if (!cfg_.use_iwarp) {
    auto sock = dev_.host().udp().open(port);
    if (!sock.ok()) return sock.status();
    s.native = *sock;
    // Closing the socket closes `native` first, so the handler never
    // outlives `s`. No pool copy: the datagram's buffer is handed on.
    s.native->set_handler([this, sp = &s](Endpoint src, Bytes data, bool) {
      hand_off(*sp, src, ConstByteSpan{data}, &data);
    });
    return Status::Ok();
  }

  s.send_cq = dev_.create_cq(kSocketCqCapacity);
  s.recv_cq = dev_.create_cq(kSocketCqCapacity);
  auto qp = dev_.create_ud_qp(
      {&pd_, s.send_cq.get(), s.recv_cq.get(), port, cfg_.reliable_dgram});
  if (!qp.ok()) return qp.status();
  s.ud = *qp;

  // Buffered-copy pool: one registered slot ring per socket. In Write-Record
  // mode peers write into it directly; in send/recv mode its slots back the
  // posted receive WRs. The ledger charges the whole ring, though pages that
  // never take data cost no RSS (ZeroRegion).
  s.pool = ZeroRegion(s.pool_slots * s.slot_bytes);
  s.pool_mr = pd_.register_memory(s.pool.span(),
                                  verbs::kLocalWrite | verbs::kRemoteWrite);
  s.pool_mem = MemCharge(dev_.host().ledger_ptr(), "isock.pool",
                         static_cast<i64>(s.pool.size()));
  post_pool_recvs(s);

  // Wire the CQ event pump now: a passive socket must react to incoming
  // control traffic (HELLO/ADVERT) without the application calling in.
  s.ud->recv_cq().set_event_handler([this, fd] {
    if (Sock* sk = find(fd)) pump_recv_cq(*sk);
  });
  return Status::Ok();
}

void ISockStack::post_pool_recvs(Sock& s) {
  // Send/recv mode: every slot is a receive buffer. Write-Record mode:
  // only a handful of small control buffers (HELLO/ADVERT) are posted —
  // data arrives one-sided.
  if (cfg_.ud_mode == XferMode::kSendRecv) {
    for (std::size_t i = 0; i < s.pool_slots; ++i) {
      (void)s.ud->post_recv(verbs::RecvWr{
          i, s.pool.span().subspan(i * s.slot_bytes, s.slot_bytes)});
    }
  } else {
    s.rx_bufs.reserve(8);
    for (std::size_t i = 0; i < 8; ++i) {
      s.rx_bufs.push_back(Bytes(64, 0));
      (void)s.ud->post_recv(verbs::RecvWr{1000 + i, ByteSpan{s.rx_bufs.back()}});
    }
  }
}

// Drain a datagram socket's receive CQ: deliver data, handle control
// traffic and repost buffers. Runs from the CQ's event handler, which bind()
// wires, and from recvfrom() and set_datagram_handler().
void ISockStack::pump_recv_cq(Sock& s) {
  if (!s.ud) return;
  auto& cq = s.ud->recv_cq();
  while (auto c = cq.poll()) {
    if (!c->status.ok()) {
      // Loss-recovered buffer (UD) — repost it in send/recv mode.
      if (cfg_.ud_mode == XferMode::kSendRecv && c->wr_id < s.pool_slots) {
        (void)s.ud->post_recv(verbs::RecvWr{
            c->wr_id,
            s.pool.span().subspan(c->wr_id * s.slot_bytes, s.slot_bytes)});
      }
      continue;
    }
    if (c->opcode == verbs::WcOpcode::kRecvWriteRecord) {
      // One-sided data: locate the slot via the reported base offset.
      if (!c->validity.ranges().empty()) {
        const ConstByteSpan span = s.pool.span().subspan(
            static_cast<std::size_t>(c->base_to), c->byte_len);
        deliver_datagram(s, c->src, span);
      }
      continue;
    }
    if (c->opcode == verbs::WcOpcode::kRecv) {
      if (cfg_.ud_mode == XferMode::kSendRecv) {
        const auto slot = static_cast<std::size_t>(c->wr_id);
        const ByteSpan buf =
            s.pool.span().subspan(slot * s.slot_bytes, s.slot_bytes);
        deliver_datagram(s, c->src, ConstByteSpan{buf}.first(c->byte_len));
        (void)s.ud->post_recv(verbs::RecvWr{c->wr_id, buf});
      } else {
        // Control traffic in Write-Record mode.
        const std::size_t idx = static_cast<std::size_t>(c->wr_id - 1000);
        if (idx < s.rx_bufs.size()) {
          verbs::Completion& cc = *c;
          handle_control(s, cc.src,
                         ConstByteSpan{s.rx_bufs[idx]}.subspan(0, cc.byte_len));
          (void)s.ud->post_recv(
              verbs::RecvWr{c->wr_id, ByteSpan{s.rx_bufs[idx]}});
        }
      }
    }
  }
}

void ISockStack::deliver_datagram(Sock& s, Endpoint src, ConstByteSpan data) {
  // Buffered copy: the interface copies from the registered pool into an
  // application-visible buffer (paper §VI.B.1 — this copy is why WR and
  // S/R perform almost identically through the socket interface).
  dev_.host().cpu().charge(
      static_cast<TimeNs>(dev_.host().costs().touch_ns_per_byte *
                          static_cast<double>(data.size())),
      {telemetry::CostLayer::kIsock, telemetry::CostActivity::kCopy,
       data.size()});
  hand_off(s, src, data);
}

void ISockStack::hand_off(Sock& s, Endpoint src, ConstByteSpan data,
                          Bytes* owned) {
  dgrams_rx_->inc();
  bytes_rx_->inc(data.size());
  if (s.on_datagram) {
    s.on_datagram(src, data);
    return;
  }
  if (s.rx_queue.size() >= kRxQueueLimit) {
    rx_dropped_no_slot_->inc();
    dev_.host().sim().telemetry().trace().record(
        telemetry::TraceKind::kIsockDropNoSlot, static_cast<u64>(src.port),
        data.size());
    return;
  }
  s.rx_queue.emplace_back(src, owned ? std::move(*owned) : to_bytes(data));
}

void ISockStack::handle_control(Sock& s, Endpoint src, ConstByteSpan data) {
  WireReader r(data);
  const u8 tag = r.u8be();
  if (tag == kCtlHello) {
    const u32 remote_qpn = r.u32be();
    if (!r.ok()) return;
    send_advert(s, src, remote_qpn);
    return;
  }
  if (tag == kCtlAdvert) {
    PeerState& peer = s.peers[src];
    peer.stag = r.u32be();
    peer.slots = r.u32be();
    peer.slot_bytes = r.u32be();
    peer.remote_qpn = r.u32be();
    if (!r.ok()) return;
    peer.advertised = true;
    // Flush datagrams that queued while waiting for the advert.
    auto pending = std::move(peer.pending);
    peer.pending.clear();
    for (auto& [dst, payload] : pending)
      (void)send_write_record(s, peer, dst, ConstByteSpan{payload});
    return;
  }
  DGI_DEBUG("isock", "unknown control tag %u", tag);
}

void ISockStack::send_advert(Sock& s, Endpoint dst, u32 remote_qpn) {
  Bytes msg;
  WireWriter w(msg);
  w.u8be(kCtlAdvert);
  w.u32be(s.pool_mr.stag);
  w.u32be(static_cast<u32>(s.pool_slots));
  w.u32be(static_cast<u32>(s.slot_bytes));
  w.u32be(s.ud->qpn());
  verbs::SendWr wr;
  wr.wr_id = 0;
  wr.opcode = verbs::WrOpcode::kSend;
  wr.local = ConstByteSpan{msg};
  wr.remote = {dst, remote_qpn};
  wr.signaled = false;
  (void)s.ud->post_send(wr);
}

Status ISockStack::send_write_record(Sock& s, PeerState& peer, Endpoint dst,
                                     ConstByteSpan data) {
  if (data.size() > peer.slot_bytes)
    return Status(Errc::kInvalidArgument, "datagram exceeds peer slot size");
  const u64 slot = peer.next_slot++ % peer.slots;
  verbs::SendWr wr;
  wr.wr_id = 0;
  wr.opcode = verbs::WrOpcode::kWriteRecord;
  wr.local = data;
  wr.remote = {dst, peer.remote_qpn};
  wr.remote_stag = peer.stag;
  wr.remote_offset = slot * peer.slot_bytes;
  wr.signaled = false;
  return s.ud->post_send(wr);
}

Status ISockStack::sendto(int fd, Endpoint dst, ConstByteSpan data) {
  Sock* s = find(fd);
  if (!s || s->type != SockType::kDatagram)
    return Status(Errc::kInvalidArgument, "bad fd");
  if (!s->bound) {
    if (Status st = bind(fd, 0); !st.ok()) return st;
    s = find(fd);
  }
  dgrams_tx_->inc();
  bytes_tx_->inc(data.size());

  // The socket interface is the outermost layer: the message lifecycle span
  // begins here (the verbs post below inherits it instead of opening its
  // own root).
  host::HostCtx& hc = dev_.host().ctx();
  auto& spans = dev_.host().sim().telemetry().spans();
  u64 span = hc.active_span;
  if (span == 0 && spans.enabled())
    span = spans.begin(telemetry::SpanKind::kIsock, "isock sendto",
                       dev_.host().addr(), data.size(),
                       static_cast<u64>(fd));
  host::SpanScope span_scope(hc, span);

  if (s->native) return s->native->send_to(dst, data);

  if (cfg_.ud_mode == XferMode::kSendRecv) {
    verbs::SendWr wr;
    wr.opcode = verbs::WrOpcode::kSend;
    wr.local = data;
    wr.remote = {dst, 0 /* matched by port, see UD demux */};
    // UD QPs demux by UDP port; the remote QPN is informational here
    // because the socket interface binds one QP per port.
    wr.signaled = false;
    return s->ud->post_send(wr);
  }

  // Write-Record data path: needs the peer's slot-ring advert first.
  PeerState& peer = s->peers[dst];
  if (!peer.advertised) {
    peer.pending.emplace_back(dst, to_bytes(data));
    if (peer.pending.size() == 1) {
      Bytes hello;
      WireWriter w(hello);
      w.u8be(kCtlHello);
      w.u32be(s->ud->qpn());
      verbs::SendWr wr;
      wr.opcode = verbs::WrOpcode::kSend;
      wr.local = ConstByteSpan{hello};
      wr.remote = {dst, 0};
      wr.signaled = false;
      return s->ud->post_send(wr);
    }
    return Status::Ok();
  }
  return send_write_record(*s, peer, dst, data);
}

std::optional<std::pair<Endpoint, Bytes>> ISockStack::recvfrom(int fd) {
  Sock* s = find(fd);
  if (!s) return std::nullopt;
  if (s->ud) pump_recv_cq(*s);
  if (s->rx_queue.empty()) return std::nullopt;
  auto front = std::move(s->rx_queue.front());
  s->rx_queue.pop_front();
  return front;
}

void ISockStack::set_datagram_handler(int fd, DatagramHandler h) {
  Sock* s = find(fd);
  if (!s) return;
  s->on_datagram = std::move(h);
  if (s->ud) pump_recv_cq(*s);  // drain anything already queued
}

// --- stream sockets --------------------------------------------------------

void ISockStack::wire_stream_qp(int fd, Sock& s) {
  // Accepted connections share the listener's CQs, so completions are
  // routed by QPN rather than by capturing one fd per CQ.
  qpn_fd_[s.rc->qpn()] = fd;
  // Initial credits: the peer posts the same ring geometry (both ends run
  // the same interface); reserve a slot for credit messages themselves.
  s.tx_credits = s.pool_slots > 1 ? s.pool_slots - 1 : 1;
  auto& rcq = s.rc->recv_cq();
  rcq.set_event_handler([this, &rcq] { pump_stream_recv(rcq); });
  auto& scq = s.rc->send_cq();
  scq.set_event_handler([this, &scq] { pump_stream_send(scq); });
  post_stream_recvs(s);
}

void ISockStack::pump_stream_recv(verbs::CompletionQueue& cq) {
  while (auto c = cq.poll()) {
    auto fit = qpn_fd_.find(c->qpn);
    if (fit == qpn_fd_.end()) continue;
    Sock* sk = find(fit->second);
    if (!sk || !sk->rc) continue;
    if (!c->status.ok() || c->opcode != verbs::WcOpcode::kRecv) continue;
    const std::size_t idx = static_cast<std::size_t>(c->wr_id);
    if (idx >= sk->pool_slots) continue;
    const ByteSpan slot =
        sk->pool.span().subspan(idx * sk->slot_bytes, sk->slot_bytes);
    const ConstByteSpan msg = ConstByteSpan{slot}.subspan(0, c->byte_len);
    // Repost the buffer before dispatch: handlers may trigger more traffic.
    const auto repost = [&] {
      (void)sk->rc->post_recv(verbs::RecvWr{c->wr_id, slot});
    };
    if (msg.empty()) {
      repost();
      continue;
    }
    const u8 tag = msg[0];
    if (tag == kStreamCredit) {
      WireReader r(msg.subspan(1));
      sk->tx_credits += r.u32be();
      repost();
      continue;
    }
    if (tag != kStreamData) {
      repost();
      continue;
    }
    Bytes payload = to_bytes(msg.subspan(1));
    repost();
    bytes_rx_->inc(payload.size());
    dev_.host().cpu().charge(
        static_cast<TimeNs>(dev_.host().costs().touch_ns_per_byte *
                            static_cast<double>(payload.size())),
        {telemetry::CostLayer::kIsock, telemetry::CostActivity::kCopy,
         payload.size()});
    // Return credits in batches (quarter ring), with a lazy flush so the
    // tail of a transfer cannot strand the sender at zero credits.
    ++sk->pending_credits;
    if (sk->pending_credits >= std::max<std::size_t>(sk->pool_slots / 4, 1)) {
      send_stream_credits(*sk);
    } else if (!sk->credit_flush_scheduled) {
      sk->credit_flush_scheduled = true;
      const int fd = fit->second;
      dev_.host().sim().after(
          500 * kMicrosecond, [this, fd, alive = alive_token()] {
            if (alive.expired()) return;
            if (Sock* s2 = find(fd)) {
              s2->credit_flush_scheduled = false;
              send_stream_credits(*s2);
            }
          });
    }
    if (sk->on_stream) sk->on_stream(ConstByteSpan{payload});
  }
}

void ISockStack::send_stream_credits(Sock& s) {
  if (!s.rc || !s.rc->connected() || s.pending_credits == 0) return;
  Bytes msg;
  WireWriter w(msg);
  w.u8be(kStreamCredit);
  w.u32be(static_cast<u32>(s.pending_credits));
  s.pending_credits = 0;
  s.tx_hold.push_back(std::move(msg));
  verbs::SendWr wr;
  wr.opcode = verbs::WrOpcode::kSend;
  wr.local = ConstByteSpan{s.tx_hold.back()};
  wr.signaled = true;
  (void)s.rc->post_send(wr);
}

void ISockStack::pump_stream_send(verbs::CompletionQueue& cq) {
  while (auto c = cq.poll()) {
    auto fit = qpn_fd_.find(c->qpn);
    if (fit == qpn_fd_.end()) continue;
    Sock* sk = find(fit->second);
    if (!sk) continue;
    if (c->opcode == verbs::WcOpcode::kSend && !sk->tx_hold.empty())
      sk->tx_hold.pop_front();
  }
}

void ISockStack::post_stream_recvs(Sock& s) {
  s.pool = ZeroRegion(s.pool_slots * s.slot_bytes);
  for (std::size_t i = 0; i < s.pool_slots; ++i) {
    (void)s.rc->post_recv(verbs::RecvWr{
        i, s.pool.span().subspan(i * s.slot_bytes, s.slot_bytes)});
  }
  s.pool_mem = MemCharge(dev_.host().ledger_ptr(), "isock.pool",
                         static_cast<i64>(s.pool.size()));
}

Status ISockStack::connect(int fd, Endpoint dst, ConnectHandler on_connected) {
  Sock* s = find(fd);
  if (!s || s->type != SockType::kStream)
    return Status(Errc::kInvalidArgument, "bad fd");
  s->send_cq = dev_.create_cq(kSocketCqCapacity);
  s->recv_cq = dev_.create_cq(kSocketCqCapacity);
  auto qp = dev_.rc_connect({&pd_, s->send_cq.get(), s->recv_cq.get()}, dst);
  if (!qp.ok()) return qp.status();
  s->rc = *qp;
  wire_stream_qp(fd, *s);
  s->rc->on_established(std::move(on_connected));
  return Status::Ok();
}

Status ISockStack::listen(int fd, AcceptHandler on_accept) {
  Sock* s = find(fd);
  if (!s || s->type != SockType::kStream)
    return Status(Errc::kInvalidArgument, "bad fd");
  if (!s->bound) return Status(Errc::kInvalidArgument, "bind first");
  if (s->listening) return Status(Errc::kInvalidArgument, "already listening");
  s->on_accept = std::move(on_accept);
  s->send_cq = dev_.create_cq(kSocketCqCapacity);
  s->recv_cq = dev_.create_cq(kSocketCqCapacity);
  // The callback holds the listener's CQs too. The port keeps it until
  // close(), and every QP it builds keeps a copy for life, so no QP
  // outlives the CQs it completes into, even after the listener closes.
  Status st = dev_.rc_listen(
      s->listen_port, {&pd_, s->send_cq.get(), s->recv_cq.get()},
      [this, listen_fd = fd, send_cq = s->send_cq, recv_cq = s->recv_cq,
       alive = alive_token()](std::shared_ptr<verbs::RcQueuePair> qp) {
        if (alive.expired()) return;
        Sock* ls = find(listen_fd);
        if (!ls) return;
        const int newfd = next_fd_++;
        Sock ns;
        ns.type = SockType::kStream;
        ns.bound = true;
        ns.pool_slots = ls->pool_slots;
        ns.slot_bytes = ls->slot_bytes;
        ns.send_cq = send_cq;
        ns.recv_cq = recv_cq;
        ns.rc = std::move(qp);
        auto [it, _] = socks_.emplace(newfd, std::move(ns));
        wire_stream_qp(newfd, it->second);
        if (ls->on_accept) ls->on_accept(newfd);
      });
  s->listening = st.ok();
  return st;
}

std::size_t ISockStack::send(int fd, ConstByteSpan data) {
  Sock* s = find(fd);
  if (!s || !s->rc || !s->rc->connected()) return 0;
  if (s->tx_credits == 0) return 0;     // peer has no posted buffer for us
  if (s->tx_hold.size() >= s->pool_slots * 4) return 0;  // staging bound
  if (data.size() + 1 > s->slot_bytes) return 0;  // must fit one buffer
  // Message lifecycle root for the stream path (see sendto()).
  host::HostCtx& hc = dev_.host().ctx();
  auto& spans = dev_.host().sim().telemetry().spans();
  u64 span = hc.active_span;
  if (span == 0 && spans.enabled())
    span = spans.begin(telemetry::SpanKind::kIsock, "isock send",
                       dev_.host().addr(), data.size(),
                       static_cast<u64>(fd));
  host::SpanScope span_scope(hc, span);
  // Buffered copy into a staging buffer that stays valid until the send
  // completes (the verbs contract); prefixed with the data tag.
  dev_.host().cpu().charge(
      static_cast<TimeNs>(dev_.host().costs().touch_ns_per_byte *
                          static_cast<double>(data.size())),
      {telemetry::CostLayer::kIsock, telemetry::CostActivity::kCopy,
       data.size()});
  Bytes staged;
  staged.reserve(data.size() + 1);
  staged.push_back(kStreamData);
  append(staged, data);
  s->tx_hold.push_back(std::move(staged));
  --s->tx_credits;
  verbs::SendWr wr;
  wr.opcode = verbs::WrOpcode::kSend;
  wr.local = ConstByteSpan{s->tx_hold.back()};
  wr.signaled = true;
  if (!s->rc->post_send(wr).ok()) {
    s->tx_hold.pop_back();
    ++s->tx_credits;
    return 0;
  }
  bytes_tx_->inc(data.size());
  return data.size();
}

void ISockStack::set_stream_handler(int fd, StreamDataHandler h) {
  if (Sock* s = find(fd)) s->on_stream = std::move(h);
}

Status ISockStack::close(int fd) {
  Sock* s = find(fd);
  if (!s) return Status(Errc::kInvalidArgument, "bad fd");
  if (s->native) dev_.host().udp().close(s->native);
  // The pool is freed with the socket below; its STag must not outlive it.
  // Erasing the socket destroys its UD QP before the QP's CQs.
  if (s->ud) (void)pd_.deregister(s->pool_mr.stag);
  if (s->listening) dev_.rc_stop_listening(s->listen_port);
  if (s->rc) {
    qpn_fd_.erase(s->rc->qpn());
    s->rc->disconnect();
  }
  socks_.erase(fd);
  return Status::Ok();
}

}  // namespace dgiwarp::isock
