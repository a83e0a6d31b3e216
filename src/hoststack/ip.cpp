#include "hoststack/ip.hpp"

#include <array>
#include <cstring>
#include <utility>

#include "common/log.hpp"

namespace dgiwarp::host {

namespace {

// Simplified IP header, padded to kIpHeaderBytes so wire math matches real
// IPv4: proto(1) flags(1) ident(2) offset(4) total(4) reserved(8).
constexpr u8 kFlagMoreFragments = 0x01;

struct IpHeader {
  u8 proto = 0;
  u8 flags = 0;
  u16 ident = 0;
  u32 offset = 0;
  u32 total = 0;

  /// The wire form; the last 8 B are reserved padding to 20 B.
  std::array<u8, kIpHeaderBytes> wire() const {
    std::array<u8, kIpHeaderBytes> b{};
    b[0] = proto;
    b[1] = flags;
    b[2] = static_cast<u8>(ident >> 8);
    b[3] = static_cast<u8>(ident);
    for (int i = 0; i < 4; ++i) {
      b[4 + i] = static_cast<u8>(offset >> (24 - 8 * i));
      b[8 + i] = static_cast<u8>(total >> (24 - 8 * i));
    }
    return b;
  }
  static Result<IpHeader> parse(WireReader& r) {
    IpHeader h;
    h.proto = r.u8be();
    h.flags = r.u8be();
    h.ident = r.u16be();
    h.offset = r.u32be();
    h.total = r.u32be();
    r.u64be();
    if (!r.ok()) return Status(Errc::kProtocolError, "short IP header");
    return h;
  }
};

}  // namespace

IpLayer::IpLayer(HostCtx& ctx)
    : ctx_(ctx),
      dgrams_tx_(ctx.sim.telemetry().counter("hoststack.ip.datagrams_tx")),
      dgrams_rx_(ctx.sim.telemetry().counter("hoststack.ip.datagrams_rx")),
      reassembly_expired_(
          ctx.sim.telemetry().counter("hoststack.ip.reassembly_expired")),
      frags_tx_(ctx.sim.telemetry().counter("hoststack.ip.fragments_tx")),
      parse_rejects_(
          ctx.sim.telemetry().counter("hoststack.ip.parse_rejects")) {
  ctx_.nic.set_rx_handler([this](sim::Frame f) { on_frame(std::move(f)); });
}

void IpLayer::register_protocol(u8 proto, ProtocolHandler handler) {
  handlers_[proto] = std::move(handler);
}

Status IpLayer::send(u8 proto, u32 dst_ip, Bytes payload) {
  constexpr std::size_t kMaxIpPayload = 65'535 - kIpHeaderBytes;
  if (payload.size() > kMaxIpPayload)
    return Status(Errc::kInvalidArgument, "IP datagram too large");

  const u16 ident = next_ident_++;
  const std::size_t total = payload.size();
  const std::size_t frag_payload = kIpPayloadMtu;  // 1480
  std::size_t off = 0;
  dgrams_tx_.inc();

  do {
    const std::size_t n = std::min(frag_payload, total - off);
    IpHeader h;
    h.proto = proto;
    h.ident = ident;
    h.offset = static_cast<u32>(off);
    h.total = static_cast<u32>(total);
    h.flags = (off + n < total) ? kFlagMoreFragments : 0;
    const auto header = h.wire();

    sim::Frame f;
    f.dst = dst_ip;
    f.proto = sim::kProtoIpv4;
    f.span = ctx_.active_span;  // lifecycle span rides the frame
    if (n == total) {
      // One fragment: the datagram becomes the frame, its header going
      // in front into the spare capacity of datagram_buffer().
      payload.insert(payload.begin(), header.begin(), header.end());
      f.payload = std::move(payload);
    } else {
      f.payload.reserve(kIpHeaderBytes + n);
      append(f.payload, header);
      append(f.payload, ConstByteSpan{payload}.subspan(off, n));
    }

    // Per-fragment kernel transmit cost; the frame enters the wire when the
    // CPU has finished preparing it. Kernel-lane ready times never
    // decrease, so the frames leave tx_queue_ in the order they entered.
    const TimeNs ready = ctx_.cpu.charge_kernel(
        ctx_.costs.ip_frag_tx,
        {telemetry::CostLayer::kIp, telemetry::CostActivity::kSegment, n});
    frags_tx_.inc();
    tx_queue_.push_back(std::move(f));
    ctx_.sim.at(ready, [this] {
      sim::Frame next = std::move(tx_queue_.front());
      tx_queue_.pop_front();
      ctx_.nic.send(std::move(next));
    });
    off += n;
  } while (off < total);

  return Status::Ok();
}

void IpLayer::on_frame(sim::Frame f) {
  WireReader r(ConstByteSpan{f.payload});
  auto hr = IpHeader::parse(r);
  if (!hr.ok()) {
    parse_rejects_.inc();
    DGI_WARN("ip", "malformed frame dropped (%zu B)", f.payload.size());
    return;
  }
  const IpHeader& h = *hr;
  ConstByteSpan body = r.rest();

  // Per-fragment receive processing.
  ctx_.cpu.charge_kernel(ctx_.costs.ip_frag_rx,
                         {telemetry::CostLayer::kIp,
                          telemetry::CostActivity::kSegment, body.size()});

  const bool single_fragment =
      h.offset == 0 && (h.flags & kFlagMoreFragments) == 0;
  if (single_fragment) {
    // The frame's buffer becomes the datagram: strip the header in place.
    dgrams_rx_.inc();
    SpanScope scope(ctx_, f.span);
    EcnScope ecn_scope(ctx_, f.ecn);
    f.payload.erase(f.payload.begin(),
                    f.payload.begin() + kIpHeaderBytes);
    deliver(f.src, h.proto, std::move(f.payload), f.corrupted);
    return;
  }

  // Reassembly path. `total` comes off the wire, so a corrupted length
  // field could otherwise demand a multi-gigabyte buffer or a zero-byte
  // "complete" datagram — bound it to what IP can actually carry before it
  // sizes anything.
  constexpr std::size_t kMaxIpPayload = 65'535 - kIpHeaderBytes;
  if (h.total == 0 || h.total > kMaxIpPayload) {
    parse_rejects_.inc();
    DGI_WARN("ip", "fragment with bogus total=%u; dropped", h.total);
    return;
  }
  const FragKey key{f.src, h.proto, h.ident};
  auto [it, inserted] = partials_.try_emplace(key);
  Partial& p = it->second;
  if (inserted) {
    p.total = h.total;
    p.data.resize(h.total);
    p.deadline = ctx_.sim.now() + reassembly_timeout_;
    p.generation = next_generation_++;
    const u64 gen = p.generation;
    ctx_.sim.at(p.deadline, [this, key, gen] {
      auto pit = partials_.find(key);
      if (pit != partials_.end() && pit->second.generation == gen) {
        reassembly_expired_.inc();
        ctx_.sim.telemetry().trace().record(
            telemetry::TraceKind::kIpReassemblyExpired, key.ident,
            pit->second.received);
        DGI_DEBUG("ip", "reassembly timeout ident=%u (%zu/%zu B)", key.ident,
                  pit->second.received, pit->second.total);
        partials_.erase(pit);
      }
    });
  }
  if (u64{h.offset} + body.size() > p.data.size()) {
    parse_rejects_.inc();
    DGI_WARN("ip", "fragment beyond datagram bounds; dropped");
    return;
  }
  if (f.corrupted) p.tainted = true;
  if (f.ecn) p.ecn = true;  // CE on any fragment marks the whole datagram
  if (f.span && p.span == 0) p.span = f.span;
  if (!body.empty())
    std::memcpy(p.data.data() + h.offset, body.data(), body.size());
  p.received +=
      merge_range(p.ranges, h.offset, static_cast<u32>(body.size()));

  if (p.received >= p.total) {
    Bytes whole = std::move(p.data);
    const bool tainted = p.tainted;
    const bool ecn = p.ecn;
    const u64 span = p.span;
    partials_.erase(it);
    dgrams_rx_.inc();
    SpanScope scope(ctx_, span);
    EcnScope ecn_scope(ctx_, ecn);
    deliver(f.src, h.proto, std::move(whole), tainted);
  }
}

void IpLayer::deliver(u32 src_ip, u8 proto, Bytes datagram, bool tainted) {
  auto it = handlers_.find(proto);
  if (it == handlers_.end()) {
    DGI_DEBUG("ip", "no handler for proto %u", proto);
    return;
  }
  it->second(src_ip, std::move(datagram), tainted);
}

}  // namespace dgiwarp::host
