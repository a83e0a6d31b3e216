#include "rd/reliable.hpp"

#include <algorithm>

#include "common/crc32.hpp"
#include "common/log.hpp"

namespace dgiwarp::rd {

namespace {
constexpr u8 kTypeData = 1;
constexpr u8 kTypeAck = 2;
// GAP-SKIP: "every sequence below `seq` is acknowledged or abandoned; stop
// waiting for it". Sent after a sender give-up so the receiver resumes.
constexpr u8 kTypeGapSkip = 3;

// The cumulative-ack header field is 32-bit (the formerly reserved u32).
// Sequences are u64 internally but a single simulated flow never reaches
// 2^32 datagrams, so the truncation below is lossless in practice.
u32 cum_to_wire(u64 cum) {
  return static_cast<u32>(std::min<u64>(cum, 0xFFFFFFFFull));
}

// Byte offset of the cumulative-ack field inside the RD header
// (type u8 + seq u64), patched in place on every (re)transmission.
constexpr std::size_t kCumOffset = 9;
// Byte offset of the packet CRC32 (after the cumulative ack), recomputed on
// every (re)transmission because the piggybacked cum changes.
constexpr std::size_t kCrcOffset = 13;

void patch_u32(Bytes& wire, std::size_t at, u32 v) {
  for (int i = 0; i < 4; ++i)
    wire[at + static_cast<std::size_t>(i)] = static_cast<u8>(v >> (24 - 8 * i));
}

void patch_cum(Bytes& wire, u64 cum) {
  patch_u32(wire, kCumOffset, cum_to_wire(cum));
}

// CRC32 over the whole packet with the CRC field itself as zero.
u32 packet_crc(ConstByteSpan wire) {
  static constexpr u8 kZeros[4] = {0, 0, 0, 0};
  Crc32 crc;
  crc.update(wire.first(kCrcOffset));
  crc.update(ConstByteSpan{kZeros, 4});
  crc.update(wire.subspan(kCrcOffset + 4));
  return crc.final();
}

void patch_crc(Bytes& wire, bool enabled) {
  patch_u32(wire, kCrcOffset, enabled ? packet_crc(ConstByteSpan{wire}) : 0);
}
}  // namespace

Result<ReliableDatagram::PacketView> ReliableDatagram::parse_packet(
    ConstByteSpan wire, bool check_crc) {
  if (wire.size() < kHeaderBytes)
    return Status(Errc::kProtocolError, "short RD packet");
  WireReader r(wire);
  PacketView p;
  const u8 type_byte = r.u8be();
  p.type = type_byte & static_cast<u8>(~kEcnEchoFlag);
  p.ecn_echo = (type_byte & kEcnEchoFlag) != 0;
  p.seq = r.u64be();
  p.cum = r.u32be();
  const u32 crc = r.u32be();
  if (p.type != kTypeData && p.type != kTypeAck && p.type != kTypeGapSkip)
    return Status(Errc::kProtocolError, "unknown RD packet type");
  if (check_crc && crc != packet_crc(wire))
    return Status(Errc::kCrcError, "RD packet CRC mismatch");
  p.body = r.rest();
  return p;
}

ReliableDatagram::ReliableDatagram(host::HostCtx& ctx,
                                   host::UdpSocket& socket, RdConfig config)
    : ctx_(ctx),
      socket_(socket),
      config_(config),
      data_tx_(ctx.sim.telemetry().counter("rd.data_tx")),
      data_rx_(ctx.sim.telemetry().counter("rd.data_rx")),
      crc_drops_(ctx.sim.telemetry().counter("rd.crc_drops")),
      crc_escapes_(ctx.sim.telemetry().counter("rd.crc_escapes")),
      parse_rejects_(ctx.sim.telemetry().counter("rd.parse_rejects")) {
  socket_.set_handler([this](Endpoint src, Bytes data, bool tainted) {
    on_raw(src, std::move(data), tainted);
  });

  auto& reg = ctx_.sim.telemetry();
  stats_.retransmits.bind(reg.counter("rd.retries"));
  stats_.fast_retransmits.bind(reg.counter("rd.fast_retransmits"));
  stats_.duplicates.bind(reg.counter("rd.duplicates"));
  stats_.acks_tx.bind(reg.counter("rd.acks_tx"));
  stats_.acks_rx.bind(reg.counter("rd.acks_rx"));
  stats_.give_ups.bind(reg.counter("rd.give_ups"));
  stats_.gap_skips_tx.bind(reg.counter("rd.gap_skips_tx"));
  stats_.rx_gaps.bind(reg.counter("rd.rx_gaps"));
  stats_.rx_ooo_drops.bind(reg.counter("rd.rx_ooo_drops"));
  stats_.wild_rejects.bind(reg.counter("rd.wild_rejects"));

  if (config_.cc_mode != cc::CcMode::kOff) {
    cc_ = std::make_unique<cc::RateController>(ctx_.sim, config_.cc_mode,
                                               config_.cc);
    // cc keys appear in the registry only for endpoints that opted in —
    // default-config runs keep byte-identical metrics JSON.
    stats_.ecn_rx.bind(reg.counter("rd.ecn_rx"));
    stats_.cnps_tx.bind(reg.counter("rd.cnps_tx"));
  }
}

ReliableDatagram::~ReliableDatagram() {
  // Balance the MemLedger for anything still parked in reorder buffers.
  for (auto& [ep, rx] : rx_) {
    (void)ep;
    if (rx.ooo_bytes > 0) account_ooo(rx, -static_cast<i64>(rx.ooo_bytes));
  }
}

Status ReliableDatagram::send_to(Endpoint dst, ConstByteSpan payload) {
  if (payload.size() + kHeaderBytes > host::kMaxUdpPayload)
    return Status(Errc::kInvalidArgument, "RD datagram too large");

  PeerTx& tx = tx_[dst];
  const u64 seq = tx.next_seq++;

  Bytes wire;
  wire.reserve(kHeaderBytes + payload.size());
  WireWriter w(wire);
  w.u8be(kTypeData);
  w.u64be(seq);
  w.u32be(0);  // cumulative-ack piggyback; patched at transmit time
  w.u32be(0);  // CRC32; patched at transmit time (depends on the cum field)
  w.bytes(payload);

  // Capture the ambient lifecycle span: it must survive window queueing and
  // retransmission, both of which outlive the caller's SpanScope.
  const u64 span = ctx_.active_span;
  if (tx.unacked.size() >= kWindow) {
    tx.queued.push_back(QueuedDgram{seq, std::move(wire), span});
    return Status::Ok();
  }
  tx.unacked.emplace(seq, Pending{.wire = std::move(wire), .span = span});
  transmit(dst, seq, tx);
  return Status::Ok();
}

void ReliableDatagram::transmit(Endpoint dst, u64 seq, PeerTx& tx) {
  auto it = tx.unacked.find(seq);
  if (it == tx.unacked.end()) return;

  if (cc_) {
    // Pacing: reserve wire time at the flow's current rate. A reservation
    // in the past (or now) sends immediately; otherwise defer the real
    // transmission, guarded by a generation so a retransmission decision
    // made meanwhile (RTO, fast retransmit) invalidates the stale event.
    const TimeNs at =
        cc_->reserve_send(flow_key(dst), it->second.wire.size());
    if (at > ctx_.sim.now()) {
      const u64 gen = ++timer_counter_;
      it->second.pace_gen = gen;
      ctx_.sim.at(at, [this, dst, seq, gen] {
        auto peer = tx_.find(dst);
        if (peer == tx_.end()) return;
        auto p = peer->second.unacked.find(seq);
        if (p == peer->second.unacked.end() || p->second.pace_gen != gen)
          return;
        transmit_now(dst, seq, peer->second);
      });
      return;
    }
    it->second.pace_gen = ++timer_counter_;  // invalidate any earlier event
  }
  transmit_now(dst, seq, tx);
}

void ReliableDatagram::transmit_now(Endpoint dst, u64 seq, PeerTx& tx) {
  auto it = tx.unacked.find(seq);
  if (it == tx.unacked.end()) return;
  Pending& p = it->second;
  auto& spans = ctx_.sim.telemetry().spans();
  ctx_.cpu.charge(ctx_.costs.rd_tx_fixed,
                  {telemetry::CostLayer::kRd,
                   telemetry::CostActivity::kSegment, p.wire.size()});
  data_tx_.inc();
  if (p.retries > 0) {
    ++stats_.retransmits;
    ctx_.sim.telemetry().trace().record(
        telemetry::TraceKind::kRdRetransmit, seq,
        static_cast<u64>(p.retries));
    // The retransmit-stall interval shows up two ways: a kRetransmit stage
    // on the message span (phase attribution in its breakdown) and a child
    // span opened at the first retransmission, closed when the ACK finally
    // lands (or the sender gives up) — a visible nested slice in the trace.
    spans.stage(p.span, telemetry::Stage::kRetransmit, seq,
                static_cast<u64>(p.retries));
    if (p.rtx_span == 0)
      p.rtx_span = spans.child(p.span, telemetry::SpanKind::kRetransmit,
                               "rd retransmit");
  } else {
    spans.stage(p.span, telemetry::Stage::kTransportTx, seq, p.wire.size());
  }
  patch_cum(p.wire, cum_for(dst));
  if (config_.crc)
    ctx_.cpu.charge(static_cast<TimeNs>(
                        ctx_.costs.crc_ns_per_byte *
                        static_cast<double>(p.wire.size())),
                    {telemetry::CostLayer::kRd, telemetry::CostActivity::kCrc,
                     p.wire.size()});
  patch_crc(p.wire, config_.crc);
  p.sent_at = ctx_.sim.now();
  // The frame always carries the original message span (retransmissions
  // included) so receive-side stages land on the span that completes.
  host::SpanScope scope(ctx_, p.span);
  (void)socket_.send_to(dst, ConstByteSpan{p.wire});
  arm_timer(dst, seq);
}

void ReliableDatagram::arm_timer(Endpoint dst, u64 seq) {
  auto& tx = tx_[dst];
  auto it = tx.unacked.find(seq);
  if (it == tx.unacked.end()) return;
  const u64 gen = ++timer_counter_;
  it->second.timer_gen = gen;
  TimeNs wait = peer_rto(tx);
  // Desynchronize retry timers from periodic outages (link flaps): once
  // backoff saturates at max_rto the retry interval is constant, and a
  // retransmission that once lands inside a down window would land there
  // every time if the fault period divides it. Up to rto/8 of seeded
  // (deterministic) slack breaks the phase lock.
  if (it->second.retries > 0)
    wait += static_cast<TimeNs>(
        ctx_.rng.below(static_cast<u64>(wait / 8) + 1));
  ctx_.sim.at(ctx_.sim.now() + wait,
              [this, dst, seq, gen] { on_timeout(dst, seq, gen); });
}

void ReliableDatagram::on_timeout(Endpoint dst, u64 seq, u64 gen) {
  auto peer = tx_.find(dst);
  if (peer == tx_.end()) return;
  PeerTx& tx = peer->second;
  auto p = tx.unacked.find(seq);
  if (p == tx.unacked.end() || p->second.timer_gen != gen) return;

  // The RTO may have grown (new RTT samples) since this timer was armed:
  // if the deadline moved into the future, re-arm instead of retransmitting
  // spuriously. This is what makes the adaptive estimator effective even
  // with a timer already in flight per packet.
  const TimeNs deadline = p->second.sent_at + peer_rto(tx);
  if (ctx_.sim.now() < deadline) {
    const u64 regen = ++timer_counter_;
    p->second.timer_gen = regen;
    ctx_.sim.at(deadline, [this, dst, seq, regen] {
      on_timeout(dst, seq, regen);
    });
    return;
  }

  if (++p->second.retries > config_.max_retries) {
    ++stats_.give_ups;
    ctx_.sim.telemetry().trace().record(telemetry::TraceKind::kRdGiveUp, seq,
                                        static_cast<u64>(dst.port));
    auto& spans = ctx_.sim.telemetry().spans();
    spans.stage(p->second.span, telemetry::Stage::kGiveUp, seq,
                static_cast<u64>(p->second.retries));
    if (p->second.rtx_span) spans.end(p->second.rtx_span, /*completed=*/false);
    spans.end(p->second.span, /*completed=*/false);
    tx.unacked.erase(p);
    DGI_WARN("rd", "giving up on seq %llu to %u:%u",
             static_cast<unsigned long long>(seq), dst.ip, dst.port);
    // Tell the receiver to stop waiting for the abandoned sequence(s); its
    // own gap timeout is the fallback if this advertisement is lost too.
    send_gap_skip(dst, tx);
    pump_queue(dst, tx);
    return;
  }

  if (config_.adaptive_rto) {
    // Karn/RFC 6298 backoff: the estimator is not updated from
    // retransmitted packets, but the timeout itself doubles up to the cap.
    tx.rto = std::min(2 * peer_rto(tx), config_.max_rto);
  }
  transmit(dst, seq, tx);
}

void ReliableDatagram::update_rtt(PeerTx& tx, TimeNs sample) {
  if (!config_.adaptive_rto) return;
  tx.rtt.update(sample);
  tx.rto = std::clamp(tx.rtt.rto(), kMinRto, config_.max_rto);
}

void ReliableDatagram::ack_one(Endpoint src, PeerTx& tx, u64 seq,
                               bool rtt_eligible) {
  auto it = tx.unacked.find(seq);
  if (it == tx.unacked.end()) return;
  // Karn's rule: only never-retransmitted packets produce RTT samples.
  // The same clean samples feed the Timely controller (no-op otherwise):
  // queue build-up at the congested trunk shows up as an RTT gradient.
  if (rtt_eligible && it->second.retries == 0) {
    const TimeNs sample = ctx_.sim.now() - it->second.sent_at;
    update_rtt(tx, sample);
    if (cc_) cc_->on_rtt_sample(flow_key(src), sample);
  }
  // The retransmit episode (if any) ends when the ACK finally lands.
  if (it->second.rtx_span)
    ctx_.sim.telemetry().spans().end(it->second.rtx_span, /*completed=*/true);
  tx.unacked.erase(it);
}

void ReliableDatagram::on_ack(Endpoint src, u64 seq, u64 cum,
                              bool ecn_echo) {
  ++stats_.acks_rx;
  ctx_.cpu.charge(ctx_.costs.rd_ack_fixed,
                  {telemetry::CostLayer::kRd, telemetry::CostActivity::kAck,
                   0});
  // CNP echo: the receiver saw CE-marked data from us — let the rate
  // controller react before the window refills below (pump_queue paces new
  // transmissions at the already-reduced rate).
  if (ecn_echo && cc_) cc_->on_cnp(flow_key(src));
  auto peer = tx_.find(src);
  if (peer == tx_.end()) return;
  PeerTx& tx = peer->second;

  ack_one(src, tx, seq, /*rtt_eligible=*/true);
  // Dup-ACK fast retransmit: a stalled cumulative point while later
  // sequences are being acknowledged means the first hole was lost.
  if (!retire_through(src, tx, cum) && cum == tx.last_cum_ack &&
      seq != cum + 1 && tx.unacked.contains(cum + 1)) {
    if (++tx.dup_acks >= kDupAckThreshold) {
      tx.dup_acks = 0;
      fast_retransmit(src, tx, cum + 1);
    }
  }
  pump_queue(src, tx);
}

void ReliableDatagram::fast_retransmit(Endpoint src, PeerTx& tx, u64 seq) {
  auto it = tx.unacked.find(seq);
  if (it == tx.unacked.end()) return;
  ++stats_.fast_retransmits;
  ctx_.sim.telemetry().trace().record(telemetry::TraceKind::kRdFastRetransmit,
                                      seq,
                                      static_cast<u64>(it->second.retries));
  ++it->second.retries;  // counts toward rd.retries and the give-up budget
  transmit(src, seq, tx);
}

bool ReliableDatagram::retire_through(Endpoint src, PeerTx& tx, u64 cum) {
  while (!tx.unacked.empty() && tx.unacked.begin()->first <= cum)
    ack_one(src, tx, tx.unacked.begin()->first, /*rtt_eligible=*/false);
  if (cum <= tx.last_cum_ack) return false;
  tx.last_cum_ack = cum;
  tx.dup_acks = 0;
  return true;
}

u64 ReliableDatagram::cum_for(Endpoint peer) const {
  auto it = rx_.find(peer);
  return it == rx_.end() ? 0 : it->second.next_expected - 1;
}

void ReliableDatagram::send_ack(Endpoint dst, u64 seq) {
  ctx_.cpu.charge(ctx_.costs.rd_ack_fixed,
                  {telemetry::CostLayer::kRd, telemetry::CostActivity::kAck,
                   0});
  // Pure-ACK packets must not carry the data span of whatever delivery
  // scope they were sent from — that would thread a forward span through a
  // reverse-direction frame.
  host::SpanScope scope(ctx_, 0);
  // DCQCN notification point: piggyback the CNP echo flag on this ACK if a
  // CE mark is pending and the coalescing interval has elapsed — at most
  // one CNP per peer per cc::kCnpInterval, however many marks arrived.
  u8 type = kTypeAck;
  if (cc_ && cc_->mode() == cc::CcMode::kDcqcn) {
    PeerRx& rx = rx_[dst];
    if (rx.ce_pending &&
        (!rx.cnp_ever ||
         ctx_.sim.now() - rx.last_cnp >= cc::kCnpInterval)) {
      type |= kEcnEchoFlag;
      rx.ce_pending = false;
      rx.cnp_ever = true;
      rx.last_cnp = ctx_.sim.now();
      ++stats_.cnps_tx;
    }
  }
  Bytes wire;
  WireWriter w(wire);
  w.u8be(type);
  w.u64be(seq);
  w.u32be(cum_to_wire(cum_for(dst)));
  w.u32be(0);
  patch_crc(wire, config_.crc);
  ++stats_.acks_tx;
  (void)socket_.send_to(dst, ConstByteSpan{wire});
}

void ReliableDatagram::send_gap_skip(Endpoint dst, PeerTx& tx) {
  // Everything below `base` has been acknowledged or abandoned.
  u64 base = tx.next_seq;
  if (!tx.unacked.empty())
    base = std::min(base, tx.unacked.begin()->first);
  if (!tx.queued.empty()) base = std::min(base, tx.queued.front().seq);

  ctx_.cpu.charge(ctx_.costs.rd_ack_fixed,
                  {telemetry::CostLayer::kRd, telemetry::CostActivity::kAck,
                   0});
  host::SpanScope scope(ctx_, 0);  // control packet: no data span (see send_ack)
  Bytes wire;
  WireWriter w(wire);
  w.u8be(kTypeGapSkip);
  w.u64be(base);
  w.u32be(cum_to_wire(cum_for(dst)));
  w.u32be(0);
  patch_crc(wire, config_.crc);
  ++stats_.gap_skips_tx;
  ctx_.sim.telemetry().trace().record(telemetry::TraceKind::kRdGapSkip, base,
                                      static_cast<u64>(dst.port));
  (void)socket_.send_to(dst, ConstByteSpan{wire});
}

void ReliableDatagram::pump_queue(Endpoint dst, PeerTx& tx) {
  while (!tx.queued.empty() && tx.unacked.size() < kWindow) {
    QueuedDgram q = std::move(tx.queued.front());
    tx.queued.pop_front();
    tx.unacked.emplace(q.seq,
                       Pending{.wire = std::move(q.wire), .span = q.span});
    transmit(dst, q.seq, tx);
  }
}

void ReliableDatagram::on_raw(Endpoint src, Bytes data, bool tainted) {
  auto parsed = parse_packet(ConstByteSpan{data}, config_.crc);
  if (!parsed.ok()) {
    if (parsed.status().code() == Errc::kCrcError) {
      // Validate-and-drop: no ACK is sent, so the sender's RTO (or dup-ACK
      // fast retransmit) resends the damaged packet — the same machinery
      // that recovers loss recovers corruption.
      crc_drops_.inc();
      if (config_.crc)
        ctx_.cpu.charge(
            static_cast<TimeNs>(ctx_.costs.crc_ns_per_byte *
                                static_cast<double>(data.size())),
            {telemetry::CostLayer::kRd, telemetry::CostActivity::kCrc,
             data.size()});
    } else {
      parse_rejects_.inc();
    }
    return;
  }
  if (config_.crc)
    ctx_.cpu.charge(static_cast<TimeNs>(ctx_.costs.crc_ns_per_byte *
                                        static_cast<double>(data.size())),
                    {telemetry::CostLayer::kRd, telemetry::CostActivity::kCrc,
                     data.size()});
  // Taint accepted with no CRC vouching for the packet: with CRC off every
  // corrupted packet lands here. With CRC on a passing check proves the
  // packet bytes are intact, so the taint is not an escape.
  if (tainted && !config_.crc) crc_escapes_.inc();

  const u8 type = parsed->type;
  const u64 seq = parsed->seq;
  const u64 cum = parsed->cum;

  switch (type) {
    case kTypeAck:
      on_ack(src, seq, cum, parsed->ecn_echo);
      return;
    case kTypeGapSkip:
      ctx_.cpu.charge(ctx_.costs.rd_ack_fixed,
                      {telemetry::CostLayer::kRd,
                       telemetry::CostActivity::kAck, 0});
      on_gap_skip(src, seq);
      return;
    case kTypeData: {
      // Piggybacked cumulative ack for the reverse direction: retire
      // everything it covers before processing the payload.
      auto peer = tx_.find(src);
      if (peer != tx_.end() && cum > 0) {
        retire_through(src, peer->second, cum);
        pump_queue(src, peer->second);
      }
      on_data(src, seq, parsed->body, tainted);
      return;
    }
    default:
      return;  // unreachable: parse_packet rejects unknown types
  }
}

void ReliableDatagram::on_data(Endpoint src, u64 seq, ConstByteSpan body,
                               bool tainted) {
  ctx_.cpu.charge(ctx_.costs.rd_rx_fixed,
                  {telemetry::CostLayer::kRd,
                   telemetry::CostActivity::kDeliver, body.size()});
  data_rx_.inc();
  // The ambient span was re-established from the carrying frame by the UDP
  // delivery closure; record RD receive processing against it.
  ctx_.sim.telemetry().spans().stage(
      ctx_.active_span, telemetry::Stage::kTransportRx, seq, body.size());

  PeerRx& rx = rx_[src];

  // Congestion-experienced mark from the carrying frame (ambient, set by
  // the IP/UDP delivery scopes). In DCQCN mode it arms a CNP echo on the
  // next ACK towards the sender; counted regardless of mode (the metric is
  // registry-visible only when cc is on).
  if (ctx_.rx_ecn) {
    ++stats_.ecn_rx;
    rx.ce_pending = true;
  }

  if (refuse_wild(rx, seq)) return;
  if (seq < rx.next_expected || rx.ooo.contains(seq)) {
    ++stats_.duplicates;
    send_ack(src, seq);
    return;
  }

  if (seq != rx.next_expected) {
    // Hole: buffer, bounded. A refused datagram is NOT acked — the sender
    // keeps it and retransmits once the buffer has drained.
    if (rx.ooo.size() >= kRxOooLimit) {
      ++stats_.rx_ooo_drops;
      return;
    }
    auto [it, inserted] = rx.ooo.emplace(
        seq, OooDgram{to_bytes(body), tainted, ctx_.rx_ecn, ctx_.active_span});
    if (inserted) account_ooo(rx, static_cast<i64>(it->second.data.size()));
    arm_gap_timer(src);
    send_ack(src, seq);
    return;
  }

  ++rx.next_expected;
  if (handler_) handler_(src, to_bytes(body), tainted);
  while (deliver_parked(src, rx, /*step_before_handler=*/true)) {}
  send_ack(src, seq);  // cum covers everything the drain just delivered
}

bool ReliableDatagram::refuse_wild(const PeerRx& rx, u64 seq) {
  // A sequence astronomically ahead of the receive frontier cannot come
  // from a well-behaved sender. With the RD CRC off a corrupted header
  // yields exactly such a seq: parked in the reorder buffer it would later
  // be walked as a gap (a corrupted GAP-SKIP base the same, at once) — one
  // sequence at a time, skipping past every legitimate datagram still in
  // flight. Refuse it outright and send no ACK.
  if (seq <= rx.next_expected || seq - rx.next_expected <= kMaxSeqAhead)
    return false;
  ++stats_.wild_rejects;
  return true;
}

bool ReliableDatagram::deliver_parked(Endpoint src, PeerRx& rx,
                                      bool step_before_handler) {
  auto it = rx.ooo.find(rx.next_expected);
  if (it == rx.ooo.end()) return false;
  OooDgram d = std::move(it->second);
  account_ooo(rx, -static_cast<i64>(d.data.size()));
  rx.ooo.erase(it);
  // The order matters to a handler that replies to the peer: the reply's
  // cum (cum_for) does or does not yet cover the datagram being delivered.
  if (step_before_handler) ++rx.next_expected;
  if (handler_) {
    // Re-establish the span/ECN the datagram arrived under: the reorder
    // buffer drain runs inside the unblocking datagram's scope.
    host::SpanScope scope(ctx_, d.span);
    host::EcnScope ecn_scope(ctx_, d.ecn);
    handler_(src, std::move(d.data), d.tainted);
  }
  if (!step_before_handler) ++rx.next_expected;
  return true;
}

void ReliableDatagram::on_gap_skip(Endpoint src, u64 base) {
  auto it = rx_.find(src);
  if (it == rx_.end()) return;
  skip_to(src, it->second, base);
}

void ReliableDatagram::skip_to(Endpoint src, PeerRx& rx, u64 base) {
  if (refuse_wild(rx, base) || base <= rx.next_expected) return;
  u64 missing = 0;
  u64 first_missing = 0;
  while (rx.next_expected < base) {
    if (deliver_parked(src, rx, /*step_before_handler=*/false)) continue;
    if (missing == 0) first_missing = rx.next_expected;
    ++missing;
    ++rx.next_expected;
  }
  while (deliver_parked(src, rx, /*step_before_handler=*/true)) {}

  if (missing > 0) {
    stats_.rx_gaps += missing;
    ctx_.sim.telemetry().trace().record(telemetry::TraceKind::kRdRxGap,
                                        first_missing, missing);
    DGI_WARN("rd", "skipping %llu lost datagram(s) from %u:%u at seq %llu",
             static_cast<unsigned long long>(missing), src.ip, src.port,
             static_cast<unsigned long long>(first_missing));
  }
}

void ReliableDatagram::arm_gap_timer(Endpoint src) {
  PeerRx& rx = rx_[src];
  if (rx.gap_armed) return;
  rx.gap_armed = true;
  const u64 cursor = rx.next_expected;
  ctx_.sim.at(ctx_.sim.now() + kGapTimeout, [this, src, cursor] {
    auto it = rx_.find(src);
    if (it == rx_.end()) return;
    PeerRx& rx = it->second;
    rx.gap_armed = false;
    // Still stuck on the same hole with data parked behind it: the
    // sender's GAP-SKIP never arrived. Skip to the first buffered seq.
    if (rx.next_expected == cursor && !rx.ooo.empty())
      skip_to(src, rx, rx.ooo.begin()->first);
    if (!rx.ooo.empty()) arm_gap_timer(src);
  });
}

void ReliableDatagram::account_ooo(PeerRx& rx, i64 delta) {
  rx.ooo_bytes = static_cast<std::size_t>(
      static_cast<i64>(rx.ooo_bytes) + delta);
  if (ctx_.ledger) ctx_.ledger->add("rd.rx_ooo", delta);
  // One gauge per Simulation: every endpoint adds its own delta, as it does
  // to its host's ledger, so the gauge sums all of them.
  if (!ooo_gauge_)
    ooo_gauge_ = &ctx_.sim.telemetry().gauge("rd.rx_ooo_bytes");
  ooo_gauge_->add(static_cast<double>(delta));
}

std::size_t ReliableDatagram::unacked() const {
  std::size_t n = 0;
  for (const auto& [_, tx] : tx_) n += tx.unacked.size();
  return n;
}

std::size_t ReliableDatagram::rx_buffered() const {
  std::size_t n = 0;
  for (const auto& [_, rx] : rx_) n += rx.ooo.size();
  return n;
}

}  // namespace dgiwarp::rd
