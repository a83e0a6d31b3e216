#include "hoststack/udp.hpp"

#include "common/log.hpp"

namespace dgiwarp::host {

namespace {

struct UdpHeader {
  u16 src_port = 0;
  u16 dst_port = 0;
  u16 length = 0;    // header + payload
  u16 checksum = 0;  // modelled as disabled (paper: DDP CRC covers data)

  void serialize(Bytes& out) const {
    WireWriter w(out);
    w.u16be(src_port);
    w.u16be(dst_port);
    w.u16be(length);
    w.u16be(checksum);
  }
  static Result<UdpHeader> parse(WireReader& r) {
    UdpHeader h;
    h.src_port = r.u16be();
    h.dst_port = r.u16be();
    h.length = r.u16be();
    h.checksum = r.u16be();
    if (!r.ok()) return Status(Errc::kProtocolError, "short UDP header");
    return h;
  }
};

}  // namespace

UdpSocket::UdpSocket(UdpLayer& layer, u16 port)
    : layer_(layer),
      port_(port),
      mem_(layer.ctx().ledger, "udp.sock",
           static_cast<i64>(layer.ctx().costs.udp_sock_bytes +
                            layer.ctx().costs.udp_buf_bytes)),
      tx_count_(
          layer.ctx().sim.telemetry().counter("hoststack.udp.datagrams_tx")) {
  rx_count_.bind(
      layer_.ctx().sim.telemetry().counter("hoststack.udp.datagrams_rx"));
}

Status UdpSocket::send_to(Endpoint dst, ConstByteSpan data) {
  if (data.size() > kMaxUdpPayload)
    return Status(Errc::kInvalidArgument, "datagram exceeds 64KB limit");

  HostCtx& ctx = layer_.ctx();
  // sendto() syscall + user->kernel copy of the payload (two sequential
  // charges: same total, separately attributable).
  ctx.cpu.charge_kernel(ctx.costs.udp_sendto_fixed,
                        {telemetry::CostLayer::kUdp,
                         telemetry::CostActivity::kSyscall, 0});
  ctx.cpu.charge_kernel(
      static_cast<TimeNs>(ctx.costs.kernel_copy_ns_per_byte *
                          static_cast<double>(data.size())),
      {telemetry::CostLayer::kUdp, telemetry::CostActivity::kCopy,
       data.size()});

  Bytes dgram = datagram_buffer(kUdpHeaderBytes + data.size());
  UdpHeader h;
  h.src_port = port_;
  h.dst_port = dst.port;
  h.length = static_cast<u16>(kUdpHeaderBytes + data.size());
  h.serialize(dgram);
  append(dgram, data);

  tx_count_.inc();
  return layer_.ip().send(kIpProtoUdp, dst.ip, std::move(dgram));
}

void UdpSocket::deliver(Endpoint src, Bytes data, bool tainted) {
  ++rx_count_;
  if (handler_) handler_(src, std::move(data), tainted);
}

UdpLayer::UdpLayer(HostCtx& ctx, IpLayer& ip)
    : ctx_(ctx),
      ip_(ip),
      parse_rejects_(
          ctx.sim.telemetry().counter("hoststack.udp.parse_rejects")) {
  ip_.register_protocol(kIpProtoUdp,
                        [this](u32 src_ip, Bytes dgram, bool tainted) {
                          on_datagram(src_ip, std::move(dgram), tainted);
                        });
}

Result<UdpSocket*> UdpLayer::open(u16 port) {
  if (port == 0) {
    // Ephemeral allocation; skip occupied ports.
    for (int tries = 0; tries < 16'384; ++tries) {
      const u16 candidate = next_ephemeral_;
      next_ephemeral_ =
          next_ephemeral_ == 65'535 ? u16{49'152} : u16(next_ephemeral_ + 1);
      if (!sockets_.contains(candidate)) {
        port = candidate;
        break;
      }
    }
    if (port == 0)
      return Status(Errc::kResourceExhausted, "no ephemeral UDP ports");
  } else if (sockets_.contains(port)) {
    return Status(Errc::kInvalidArgument, "UDP port in use");
  }
  auto sock = std::unique_ptr<UdpSocket>(new UdpSocket(*this, port));
  UdpSocket* raw = sock.get();
  sockets_.emplace(port, std::move(sock));
  return raw;
}

void UdpLayer::close(UdpSocket* sock) {
  if (sock) sockets_.erase(sock->local_port());
}

void UdpLayer::on_datagram(u32 src_ip, Bytes dgram, bool tainted) {
  WireReader r(ConstByteSpan{dgram});
  auto hr = UdpHeader::parse(r);
  if (!hr.ok()) {
    parse_rejects_.inc();
    return;
  }
  const UdpHeader& h = *hr;

  // The length field must agree with what IP actually delivered: shorter is
  // tolerated (trailing padding is cut, per real UDP), longer is a lie.
  if (h.length < kUdpHeaderBytes ||
      std::size_t{h.length} - kUdpHeaderBytes > r.remaining()) {
    parse_rejects_.inc();
    DGI_DEBUG("udp", "length field %u disagrees with %zu B datagram; dropped",
              h.length, dgram.size());
    return;
  }

  auto it = sockets_.find(h.dst_port);
  if (it == sockets_.end()) {
    DGI_DEBUG("udp", "no socket on port %u; datagram dropped", h.dst_port);
    return;
  }

  // The datagram's buffer becomes the payload: strip the header in place
  // and cut any trailing padding.
  Bytes payload = std::move(dgram);
  payload.erase(payload.begin(), payload.begin() + kUdpHeaderBytes);
  payload.resize(std::size_t{h.length} - kUdpHeaderBytes);

  // Kernel rx: socket demux + wakeup + kernel->user copy of the (fully
  // reassembled) datagram. Note: this copy happens only once the whole
  // datagram is present — large UD datagrams cannot overlap receive-side
  // stack work with their own arrival, unlike TCP's per-segment delivery.
  HostCtx& c = ctx_;
  // A busy receiver (user lane backlogged) picks datagrams up from its
  // receive loop without paying the full scheduler wakeup.
  const bool receiver_busy = c.cpu.free_at() > c.sim.now();
  const TimeNs cost =
      (receiver_busy ? c.costs.udp_deliver_busy_fixed
                     : c.costs.udp_deliver_fixed) +
      static_cast<TimeNs>(c.costs.kernel_copy_ns_per_byte *
                          static_cast<double>(payload.size()));
  const Endpoint src{src_ip, h.src_port};
  const u16 dst_port = h.dst_port;
  // The delivery chain defers through a wakeup delay and a kernel charge;
  // the lifecycle span and ECN mark (established by IP's deliver scopes)
  // are captured into the closures and re-scoped around the socket handler.
  const u64 span = c.active_span;
  const bool ecn = c.rx_ecn;
  const telemetry::CostSite site{telemetry::CostLayer::kUdp,
                                 receiver_busy
                                     ? telemetry::CostActivity::kDeliver
                                     : telemetry::CostActivity::kWakeup,
                                 payload.size()};
  // Interrupt/wakeup latency first (pure delay), then the CPU-time charge.
  // Re-resolve the socket at delivery time: it may be closed while the
  // kernel-processing charge is still pending.
  c.sim.after(c.costs.rx_wakeup_delay, [this, cost, dst_port, src, tainted,
                                        span, ecn, site,
                                        p = std::move(payload)]() mutable {
    auto& spans = ctx_.sim.telemetry().spans();
    spans.stage(span, telemetry::Stage::kRxWakeup);
    ctx_.cpu.charge_kernel_then(
        cost, site,
        [this, dst_port, src, tainted, span, ecn,
         p = std::move(p)]() mutable {
          ctx_.sim.telemetry().spans().stage(span,
                                            telemetry::Stage::kRxDeliver,
                                            p.size());
          auto sit = sockets_.find(dst_port);
          if (sit != sockets_.end()) {
            SpanScope scope(ctx_, span);
            EcnScope ecn_scope(ctx_, ecn);
            sit->second->deliver(src, std::move(p), tainted);
          }
        });
  });
}

}  // namespace dgiwarp::host
