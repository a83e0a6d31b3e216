// Deterministic structure-aware wire fuzzing.
//
// Every parser that consumes peer-controlled bytes is hammered with seeded
// mutations of valid frames. DDP segments, RDMAP read requests, Terminate
// messages, MPA FPDU streams, RD packets and SIP messages each take
// kIterations mutations at every one of the eight kSeeds; the IP/UDP/TCP
// stack, fed whole frames through IpLayer::on_frame, takes them at kSeed.
// Two invariants hold for every mutation:
//   1. Well-formed or rejected: never crash, never read out of bounds
//      (verify-asan runs this binary under ASan/UBSan), and either return a
//      clean Status or an object whose lengths fit the bytes it came from.
//   2. Round trip: whatever the DDP, read-request, Terminate and SIP parsers
//      accept survives serialize -> parse with every field intact. A parser
//      that "repairs" hostile input into something its own serializer
//      disagrees with is a protocol-confusion bug even if it never crashes.
// The corpus is a pure function of the seed (FuzzCorpusIsDeterministic); a
// failure names its seed and iteration, which reproduce it.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "apps/sip/message.hpp"
#include "common/checksum.hpp"
#include "common/crc32.hpp"
#include "ddp/header.hpp"
#include "fuzz_util.hpp"
#include "hoststack/host.hpp"
#include "mpa/mpa.hpp"
#include "rd/reliable.hpp"
#include "rdmap/message.hpp"
#include "rdmap/terminate.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

// Mutations per seed and format. Each format adds its own offset to the
// seed, so no two formats draw the same stream.
constexpr int kIterations = 10'000;
constexpr u64 kSeeds[] = {0xF0225EED, 0xBADC0DE5, 0x5EEDFACE, 0x10ADED,
                          0xD06F00D5, 0xCAFEF00D, 0x0DDBA11,  0xF1A5C0};
constexpr u64 kSeed = kSeeds[0];

// The second payload fill the base frames are built from, beside
// make_pattern's xorshift bytes: a byte ramp.
Bytes ramp(std::size_t n, u32 tag) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<u8>(i * 131 + tag * 7);
  return out;
}

// ---------------------------------------------------------------------------
// Corpus determinism: same seed => byte-for-byte identical mutations.
// ---------------------------------------------------------------------------

TEST(WireFuzz, FuzzCorpusIsDeterministic) {
  const Bytes base = make_pattern(96, 7);
  const Bytes other = make_pattern(64, 9);
  fuzz::Mutator a(kSeed), b(kSeed);
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_EQ(a.mutate(ConstByteSpan{base}, ConstByteSpan{other}),
              b.mutate(ConstByteSpan{base}, ConstByteSpan{other}))
        << "corpus diverged at iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// DDP segments
// ---------------------------------------------------------------------------

Bytes valid_ddp_segment(bool tagged, bool with_crc, std::size_t payload_len) {
  ddp::SegmentHeader h;
  h.set_opcode(static_cast<u8>(tagged ? rdmap::Opcode::kWrite
                                      : rdmap::Opcode::kSend));
  h.set_tagged(tagged);
  h.set_last(true);
  h.queue = tagged ? 0 : static_cast<u8>(ddp::Queue::kSend);
  h.stag = tagged ? 0x1234 : 0;
  h.to = tagged ? 0x100 : 0;
  h.msn = 7;
  h.mo = 0;
  h.msg_len = static_cast<u32>(payload_len);
  h.src_qpn = 42;
  const Bytes payload = make_pattern(payload_len, 3);
  return ddp::build_segment(h, ConstByteSpan{payload}, with_crc);
}

auto header_fields(const ddp::SegmentHeader& h) {
  return std::make_tuple(h.control, h.queue, h.stag, h.to, h.msn, h.mo,
                         h.msg_len, h.src_qpn);
}

TEST(WireFuzz, DdpParserSurvivesMutations) {
  // Two pairs of base segments, each one with a CRC and one without. A
  // mutation is parsed with its base's CRC setting and may splice in the
  // other half of its pair.
  ddp::SegmentHeader untagged;  // opcode 0, queue 0, MSN 1
  untagged.set_last(true);
  untagged.msn = 1;
  untagged.msg_len = 256;
  const Bytes ramp_payload = ramp(256, 3);
  const Bytes pairs[2][2] = {
      {valid_ddp_segment(false, true, 256),
       valid_ddp_segment(true, false, 100)},
      {ddp::build_segment(untagged, ConstByteSpan{ramp_payload}, true),
       ddp::build_segment(untagged, ConstByteSpan{ramp_payload}, false)}};
  for (u64 seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << std::hex << seed);
    fuzz::Mutator m(seed);
    int accepted = 0, rejected = 0;
    for (int i = 0; i < kIterations; ++i) {
      const bool crc = (i & 1) == 0;
      const Bytes(&pair)[2] = pairs[(i >> 1) & 1];
      const Bytes mut = m.mutate(ConstByteSpan{pair[crc ? 0 : 1]},
                                 ConstByteSpan{pair[crc ? 1 : 0]});
      auto r = ddp::parse_segment(ConstByteSpan{mut}, crc);
      if (!r.ok()) {
        ++rejected;
        continue;
      }
      ++accepted;
      // A well-formed result: payload inside the buffer, lengths consistent.
      const ddp::ParsedSegment& p = *r;
      ASSERT_LE(u64{p.header.mo} + p.payload.size(), u64{p.header.msg_len})
          << "iteration " << i;
      ASSERT_GE(mut.size(), ddp::kHeaderBytes + p.payload.size())
          << "iteration " << i;
      if (!p.payload.empty()) {
        ASSERT_GE(p.payload.data(), mut.data()) << "iteration " << i;
        ASSERT_LE(p.payload.data() + p.payload.size(),
                  mut.data() + mut.size())
            << "iteration " << i;
      }
      const Bytes rebuilt = ddp::build_segment(p.header, p.payload, crc);
      auto again = ddp::parse_segment(ConstByteSpan{rebuilt}, crc);
      ASSERT_TRUE(again.ok()) << "iteration " << i;
      ASSERT_EQ(header_fields(again->header), header_fields(p.header))
          << "iteration " << i;
      ASSERT_TRUE(std::ranges::equal(again->payload, p.payload))
          << "iteration " << i;
    }
    // With the CRC on, near-everything must be rejected; either way both
    // outcomes have to be exercised for the run to mean anything.
    EXPECT_GT(rejected, kIterations / 2);
    EXPECT_GT(accepted, 0);  // truncate-to-valid-prefix etc. still parse
  }
}

// ---------------------------------------------------------------------------
// RDMAP read requests + Terminate
// ---------------------------------------------------------------------------

TEST(WireFuzz, ReadRequestParserSurvivesMutations) {
  rdmap::ReadRequestPayload req;
  req.sink_stag = 0xAABB;
  req.sink_to = 0x1000;
  req.src_stag = 0xCCDD;
  req.src_to = 0x2000;
  req.length = 4096;
  const Bytes base = req.serialize();
  const auto fields = [](const rdmap::ReadRequestPayload& p) {
    return std::make_tuple(p.sink_stag, p.sink_to, p.src_stag, p.src_to,
                           p.length);
  };
  for (u64 seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << std::hex << seed);
    fuzz::Mutator m(seed + 1);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
      const Bytes mut = m.mutate(ConstByteSpan{base});
      auto r = rdmap::ReadRequestPayload::parse(ConstByteSpan{mut});
      if (!r.ok()) continue;
      ++accepted;
      const Bytes rebuilt = r->serialize();
      auto again = rdmap::ReadRequestPayload::parse(ConstByteSpan{rebuilt});
      ASSERT_TRUE(again.ok()) << "iteration " << i;
      ASSERT_EQ(fields(*again), fields(*r)) << "iteration " << i;
    }
    EXPECT_GT(accepted, 0);
  }
}

TEST(WireFuzz, TerminateParserSurvivesMutations) {
  rdmap::TerminateMessage t;
  t.layer = rdmap::TermLayer::kDdp;
  t.error_code = static_cast<u8>(rdmap::TermError::kInvalidStag);
  t.context = 0xDEAD;
  const Bytes base = t.serialize();
  const auto fields = [](const rdmap::TerminateMessage& msg) {
    return std::make_tuple(static_cast<u8>(msg.layer), msg.error_code,
                           msg.context);
  };
  for (u64 seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << std::hex << seed);
    fuzz::Mutator m(seed + 2);
    for (int i = 0; i < kIterations; ++i) {
      const Bytes mut = m.mutate(ConstByteSpan{base});
      auto r = rdmap::TerminateMessage::parse(ConstByteSpan{mut});
      if (!r.ok()) continue;
      // Well-formed or rejected: the layer must be a valid enumerator.
      ASSERT_LE(static_cast<u8>(r->layer), 2) << "iteration " << i;
      const Bytes rebuilt = r->serialize();
      auto again = rdmap::TerminateMessage::parse(ConstByteSpan{rebuilt});
      ASSERT_TRUE(again.ok()) << "iteration " << i;
      ASSERT_EQ(fields(*again), fields(*r)) << "iteration " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// MPA FPDU stream
// ---------------------------------------------------------------------------

TEST(WireFuzz, MpaReceiverSurvivesMutatedStreams) {
  // Base streams: three FPDUs under each marker/CRC setting, with either
  // payload fill.
  mpa::MpaConfig cfgs[4];
  Bytes streams[4][2];
  for (int c = 0; c < 4; ++c) {
    cfgs[c].use_markers = (c & 1) != 0;
    cfgs[c].use_crc = (c & 2) != 0;
    for (int fill = 0; fill < 2; ++fill) {
      mpa::MpaSender tx(cfgs[c]);
      for (int f = 0; f < 3; ++f) {
        const std::size_t n = 40 + 64 * static_cast<std::size_t>(f);
        const u32 tag = static_cast<u32>(f);
        const Bytes ulpdu = fill == 0 ? make_pattern(n, tag) : ramp(n, tag);
        tx.frame(streams[c][fill], ConstByteSpan{ulpdu});
      }
    }
  }
  for (u64 seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << std::hex << seed);
    fuzz::Mutator m(seed + 3);
    for (int i = 0; i < kIterations; ++i) {
      const int c = i & 3;
      const Bytes mut = m.mutate(ConstByteSpan{streams[c][(i >> 2) & 1]});
      mpa::MpaReceiver rx(cfgs[c]);
      std::size_t delivered_bytes = 0;
      rx.on_ulpdu([&](ConstByteSpan u, bool) { delivered_bytes += u.size(); });
      // Feed in random chunks: defragmentation and split markers get hit.
      std::size_t off = 0;
      while (off < mut.size()) {
        const std::size_t n =
            std::min<std::size_t>(1 + m.rng().below(600), mut.size() - off);
        const Status st = rx.consume(ConstByteSpan{mut}.subspan(off, n));
        if (!st.ok()) break;  // poisoned stream stays poisoned
        off += n;
      }
      // No invented bytes: the ULPDUs the receiver yields never exceed the
      // stream it was fed.
      ASSERT_LE(delivered_bytes, mut.size()) << "iteration " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// RD packets
// ---------------------------------------------------------------------------

Bytes valid_rd_packet(u8 type, u64 seq, u32 cum, ConstByteSpan payload) {
  Bytes out;
  WireWriter w(out);
  w.u8be(type);
  w.u64be(seq);
  w.u32be(cum);
  w.u32be(0);  // CRC placeholder (zeroed-field convention)
  w.bytes(payload);
  const u32 crc = crc32_ieee(ConstByteSpan{out});
  constexpr std::size_t kCrcAt = 13;
  for (int i = 0; i < 4; ++i)
    out[kCrcAt + static_cast<std::size_t>(i)] =
        static_cast<u8>(crc >> (8 * (3 - i)));
  return out;
}

TEST(WireFuzz, RdPacketParserSurvivesMutations) {
  // Two data packets, one per payload fill; both splice with an ACK.
  const Bytes data_pkts[] = {
      valid_rd_packet(1, 9, 4, ConstByteSpan{make_pattern(200, 5)}),
      valid_rd_packet(1, 9, 4, ConstByteSpan{ramp(200, 5)})};
  const Bytes ack_pkt = valid_rd_packet(2, 9, 9, {});
  for (u64 seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << std::hex << seed);
    fuzz::Mutator m(seed + 4);
    int accepted_crc = 0, accepted_nocrc = 0;
    for (int i = 0; i < kIterations; ++i) {
      const bool check_crc = (i & 1) == 0;
      const Bytes mut = m.mutate(ConstByteSpan{data_pkts[(i >> 1) & 1]},
                                 ConstByteSpan{ack_pkt});
      auto r =
          rd::ReliableDatagram::parse_packet(ConstByteSpan{mut}, check_crc);
      if (!r.ok()) continue;
      check_crc ? ++accepted_crc : ++accepted_nocrc;
      ASSERT_GE(r->type, 1) << "iteration " << i;
      ASSERT_LE(r->type, 3) << "iteration " << i;
      ASSERT_LE(r->body.size(),
                mut.size() - rd::ReliableDatagram::kHeaderBytes)
          << "iteration " << i;
    }
    // CRC off accepts vastly more damage than CRC on — that asymmetry is
    // the whole reason the RD CRC exists.
    EXPECT_GT(accepted_nocrc, accepted_crc);
  }
}

// ---------------------------------------------------------------------------
// Full host stack: IP / UDP / TCP via IpLayer::on_frame
// ---------------------------------------------------------------------------

// Simplified IP header used by the stack (see hoststack/ip.cpp):
// proto(1) flags(1) ident(2) offset(4) total(4) reserved(8).
Bytes ip_frame_payload(u8 proto, u8 flags, u16 ident, u32 offset, u32 total,
                       ConstByteSpan body) {
  Bytes out;
  WireWriter w(out);
  w.u8be(proto);
  w.u8be(flags);
  w.u16be(ident);
  w.u32be(offset);
  w.u32be(total);
  w.u64be(0);
  w.bytes(body);
  return out;
}

TEST(WireFuzz, HostStackSurvivesMutatedFrames) {
  sim::Topology::Params params;
  params.seed = kSeed;
  sim::Topology topo(params);
  host::Host h(topo, "fuzz-target");

  // A bound UDP socket and a TCP listener so mutated frames reach the full
  // demux + delivery paths, not just the parsers.
  auto usock = *h.udp().open(7000);
  std::size_t udp_rx = 0;
  usock->set_handler(
      [&](host::Endpoint, Bytes d, bool) { udp_rx += d.size(); });
  std::vector<host::TcpSocket::Ptr> accepted;
  (void)h.tcp().listen(8000,
                       [&](host::TcpSocket::Ptr s) { accepted.push_back(s); });

  // Base frames: a single-fragment UDP datagram, the first fragment of a
  // larger one, and a TCP SYN. (TCP checksum is computed by serialize(),
  // so the SYN base is genuinely valid.)
  Bytes udp_dgram;
  {
    WireWriter w(udp_dgram);
    w.u16be(5555);                  // src port
    w.u16be(7000);                  // dst port
    w.u16be(8 + 64);                // length
    w.u16be(0);                     // checksum (disabled for UDP)
    const Bytes p = make_pattern(64, 2);
    w.bytes(ConstByteSpan{p});
  }
  const Bytes base_udp = ip_frame_payload(host::kIpProtoUdp, 0, 1, 0,
                                          static_cast<u32>(udp_dgram.size()),
                                          ConstByteSpan{udp_dgram});
  const Bytes frag_body = make_pattern(400, 8);
  const Bytes base_frag =
      ip_frame_payload(host::kIpProtoUdp, 0x01 /*more fragments*/, 2, 0, 900,
                       ConstByteSpan{frag_body});
  Bytes syn_seg;
  {
    // sp dp seq ack flags rsv wnd csum len — layout from tcp.cpp; the
    // checksum must be valid or the (on-by-default) validation drops it
    // before the interesting code runs, so patch it like serialize() does.
    WireWriter w(syn_seg);
    w.u16be(4444);
    w.u16be(8000);
    w.u64be(100);
    w.u64be(0);
    w.u8be(0x01);  // SYN
    w.u8be(0);
    w.u32be(65'535);
    w.u16be(0);  // checksum placeholder
    w.u16be(0);  // payload length
    const u16 sum = internet_checksum(ConstByteSpan{syn_seg});
    syn_seg[26] = static_cast<u8>(sum >> 8);
    syn_seg[27] = static_cast<u8>(sum);
  }
  const Bytes base_tcp = ip_frame_payload(host::kIpProtoTcp, 0, 3, 0,
                                          static_cast<u32>(syn_seg.size()),
                                          ConstByteSpan{syn_seg});

  const Bytes* bases[] = {&base_udp, &base_frag, &base_tcp};
  fuzz::Mutator m(kSeed + 5);
  u64 frame_id = 1;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes& base = *bases[i % 3];
    const Bytes& other = *bases[(i + 1) % 3];
    sim::Frame f;
    f.src = 0x0A000099;  // some remote address
    f.dst = h.addr();
    f.proto = sim::kProtoIpv4;
    f.id = frame_id++;
    f.payload = m.mutate(ConstByteSpan{base}, ConstByteSpan{other});
    h.ip().on_frame(std::move(f));
    if ((i & 63) == 63) topo.sim().run();
  }
  topo.sim().run();

  // The stack had to both reject garbage and keep functioning: re-inject
  // the pristine UDP frame and see it delivered.
  const std::size_t before = udp_rx;
  sim::Frame ok;
  ok.src = 0x0A000099;
  ok.dst = h.addr();
  ok.proto = sim::kProtoIpv4;
  ok.id = frame_id++;
  ok.payload = base_udp;
  h.ip().on_frame(std::move(ok));
  topo.sim().run();
  EXPECT_EQ(udp_rx, before + 64);

  const auto& reg = topo.sim().telemetry();
  EXPECT_GT(reg.counter_value("hoststack.ip.parse_rejects") +
                reg.counter_value("hoststack.udp.parse_rejects") +
                reg.counter_value("hoststack.tcp.parse_rejects") +
                reg.counter_value("hoststack.tcp.checksum_drops"),
            0u);
}

// ---------------------------------------------------------------------------
// SIP messages
// ---------------------------------------------------------------------------

TEST(WireFuzz, SipParserSurvivesMutations) {
  // Two request/response pairs; a mutation of one may splice in the other.
  Bytes bases[2][2];
  const char* call_ids[] = {"call-fuzz-1", "call-1"};
  for (int b = 0; b < 2; ++b) {
    const sip::SipMessage req = sip::make_request(
        sip::Method::kInvite, "alice", "bob", call_ids[b], 1);
    bases[b][0] = req.serialize();
    bases[b][1] = sip::make_response(req, 200, "OK").serialize();
  }
  // The serializer regenerates Content-Length from the body, so the round
  // trip compares every other header, in order.
  const auto without_length = [](const sip::SipMessage& msg) {
    auto headers = msg.headers;
    std::erase_if(headers,
                  [](const auto& h) { return h.first == "Content-Length"; });
    return headers;
  };
  for (u64 seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << std::hex << seed);
    fuzz::Mutator m(seed + 6);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
      const Bytes(&pair)[2] = bases[(i >> 1) & 1];
      const int which = i & 1;
      const Bytes mut = m.mutate(ConstByteSpan{pair[which]},
                                 ConstByteSpan{pair[1 - which]});
      auto r = sip::SipMessage::parse(ConstByteSpan{mut});  // never throws
      if (!r.ok()) continue;
      ++accepted;
      ASSERT_LE(r->body.size(), mut.size()) << "iteration " << i;
      ASSERT_LE(r->headers.size(), 128u) << "iteration " << i;
      const Bytes rebuilt = r->serialize();
      auto again = sip::SipMessage::parse(ConstByteSpan{rebuilt});
      ASSERT_TRUE(again.ok()) << "iteration " << i;
      ASSERT_EQ(again->method, r->method) << "iteration " << i;
      ASSERT_EQ(again->request_uri, r->request_uri) << "iteration " << i;
      ASSERT_EQ(again->status_code, r->status_code) << "iteration " << i;
      ASSERT_EQ(again->reason, r->reason) << "iteration " << i;
      ASSERT_EQ(without_length(*again), without_length(*r))
          << "iteration " << i;
      ASSERT_EQ(again->body, r->body) << "iteration " << i;
    }
    EXPECT_GT(accepted, 0);
  }
}

}  // namespace
}  // namespace dgiwarp
