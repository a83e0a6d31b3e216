// Fuzz campaign: the heavier, multi-seed companion to tests/wire_fuzz_test.
//
// Two layers of checking on every wire format the stack parses:
//   1. Survival — seeded structure-aware mutations must never crash a
//      parser (it is the ctest fuzz_campaign, so verify-asan runs it under
//      ASan/UBSan and turns "never over-read" into an enforced invariant),
//      and every accept must produce a self-consistent object.
//   2. Round-trip stability — anything a parser ACCEPTS must survive
//      serialize -> parse with every field intact. A parser that "repairs"
//      hostile input into something its own serializer disagrees with is a
//      protocol-confusion bug even if it never crashes.
//
// The campaign sweeps several seeds so a CI run covers a different slice of
// mutation space than the fixed-seed unit test, while staying perfectly
// reproducible: rerun with the printed seed to get the identical corpus.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/sip/message.hpp"
#include "bench_util.hpp"
#include "common/crc32.hpp"
#include "common/stats.hpp"
#include "ddp/header.hpp"
#include "fuzz_util.hpp"
#include "mpa/mpa.hpp"
#include "rd/reliable.hpp"
#include "rdmap/message.hpp"
#include "rdmap/terminate.hpp"

using namespace dgiwarp;

namespace {

constexpr u64 kSeeds[] = {0xF0225EED, 0xBADC0DE5, 0x5EEDFACE, 0x10ADED,
                          0xD06F00D5, 0xCAFEF00D, 0x0DDBA11, 0xF1A5C0};
constexpr int kItersPerSeed = 5'000;

struct FormatResult {
  const char* name = "";
  u64 mutations = 0;
  u64 accepted = 0;
  u64 roundtrip_checked = 0;
  u64 violations = 0;
};

Bytes pattern(std::size_t n, u32 tag) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<u8>((i * 131 + tag * 7) & 0xFF);
  return out;
}

// --------------------------------------------------------------------------
// DDP segments: parse -> rebuild from the parsed header -> reparse.
// --------------------------------------------------------------------------

FormatResult fuzz_ddp() {
  FormatResult res;
  res.name = "ddp segment";
  ddp::SegmentHeader h;
  h.set_opcode(0);
  h.set_last(true);
  h.queue = 0;
  h.msn = 1;
  h.msg_len = 256;
  const Bytes payload = pattern(256, 3);
  const Bytes base_crc = ddp::build_segment(h, ConstByteSpan{payload}, true);
  const Bytes base_plain =
      ddp::build_segment(h, ConstByteSpan{payload}, false);

  for (u64 seed : kSeeds) {
    fuzz::Mutator m(seed);
    for (int i = 0; i < kItersPerSeed; ++i) {
      const bool crc = (i & 1) == 0;
      const Bytes& base = crc ? base_crc : base_plain;
      const Bytes mut = m.mutate(ConstByteSpan{base});
      ++res.mutations;
      auto r = ddp::parse_segment(ConstByteSpan{mut}, crc);
      if (!r.ok()) continue;
      ++res.accepted;
      const ddp::ParsedSegment& p = *r;
      if (u64{p.header.mo} + p.payload.size() > u64{p.header.msg_len}) {
        ++res.violations;
        continue;
      }
      // Round-trip: rebuilding the accepted segment must reparse to the
      // same header and payload.
      const Bytes rebuilt = ddp::build_segment(p.header, p.payload, crc);
      auto r2 = ddp::parse_segment(ConstByteSpan{rebuilt}, crc);
      ++res.roundtrip_checked;
      if (!r2.ok() || std::memcmp(&r2->header, &p.header,
                                  sizeof(ddp::SegmentHeader)) != 0 ||
          r2->payload.size() != p.payload.size() ||
          (!p.payload.empty() &&
           std::memcmp(r2->payload.data(), p.payload.data(),
                       p.payload.size()) != 0)) {
        ++res.violations;
        std::fprintf(stderr, "ddp round-trip violation (seed %llx it %d)\n",
                     static_cast<unsigned long long>(seed), i);
      }
    }
  }
  return res;
}

// --------------------------------------------------------------------------
// RDMAP read requests + Terminate messages.
// --------------------------------------------------------------------------

FormatResult fuzz_read_request() {
  FormatResult res;
  res.name = "rdmap read req";
  rdmap::ReadRequestPayload req;
  req.sink_stag = 0xAABB;
  req.sink_to = 0x1000;
  req.src_stag = 0xCCDD;
  req.src_to = 0x2000;
  req.length = 4096;
  const Bytes base = req.serialize();
  for (u64 seed : kSeeds) {
    fuzz::Mutator m(seed + 1);
    for (int i = 0; i < kItersPerSeed; ++i) {
      const Bytes mut = m.mutate(ConstByteSpan{base});
      ++res.mutations;
      auto r = rdmap::ReadRequestPayload::parse(ConstByteSpan{mut});
      if (!r.ok()) continue;
      ++res.accepted;
      const Bytes rebuilt = r->serialize();
      auto r2 = rdmap::ReadRequestPayload::parse(ConstByteSpan{rebuilt});
      ++res.roundtrip_checked;
      if (!r2.ok() || r2->sink_stag != r->sink_stag ||
          r2->sink_to != r->sink_to || r2->src_stag != r->src_stag ||
          r2->src_to != r->src_to || r2->length != r->length) {
        ++res.violations;
        std::fprintf(stderr,
                     "read-req round-trip violation (seed %llx it %d)\n",
                     static_cast<unsigned long long>(seed), i);
      }
    }
  }
  return res;
}

FormatResult fuzz_terminate() {
  FormatResult res;
  res.name = "rdmap terminate";
  rdmap::TerminateMessage t;
  t.layer = rdmap::TermLayer::kDdp;
  t.error_code = static_cast<u8>(rdmap::TermError::kInvalidStag);
  t.context = 0xDEAD;
  const Bytes base = t.serialize();
  for (u64 seed : kSeeds) {
    fuzz::Mutator m(seed + 2);
    for (int i = 0; i < kItersPerSeed; ++i) {
      const Bytes mut = m.mutate(ConstByteSpan{base});
      ++res.mutations;
      auto r = rdmap::TerminateMessage::parse(ConstByteSpan{mut});
      if (!r.ok()) continue;
      ++res.accepted;
      const Bytes rebuilt = r->serialize();
      auto r2 = rdmap::TerminateMessage::parse(ConstByteSpan{rebuilt});
      ++res.roundtrip_checked;
      if (!r2.ok() || r2->layer != r->layer ||
          r2->error_code != r->error_code || r2->context != r->context) {
        ++res.violations;
        std::fprintf(stderr,
                     "terminate round-trip violation (seed %llx it %d)\n",
                     static_cast<unsigned long long>(seed), i);
      }
    }
  }
  return res;
}

// --------------------------------------------------------------------------
// RD packets: header arithmetic + CRC asymmetry.
// --------------------------------------------------------------------------

Bytes valid_rd_packet(u8 type, u64 seq, u32 cum, std::size_t payload_len) {
  Bytes out;
  WireWriter w(out);
  w.u8be(type);
  w.u64be(seq);
  w.u32be(cum);
  w.u32be(0);  // CRC placeholder (zeroed-field convention)
  const Bytes payload = pattern(payload_len, 5);
  w.bytes(ConstByteSpan{payload});
  const u32 crc = crc32_ieee(ConstByteSpan{out});
  constexpr std::size_t kCrcAt = 13;
  for (int i = 0; i < 4; ++i)
    out[kCrcAt + static_cast<std::size_t>(i)] =
        static_cast<u8>(crc >> (8 * (3 - i)));
  return out;
}

FormatResult fuzz_rd_packet() {
  FormatResult res;
  res.name = "rd packet";
  const Bytes data_pkt = valid_rd_packet(1, 9, 4, 200);
  const Bytes ack_pkt = valid_rd_packet(2, 9, 9, 0);
  u64 accepted_crc = 0, accepted_nocrc = 0;
  for (u64 seed : kSeeds) {
    fuzz::Mutator m(seed + 3);
    for (int i = 0; i < kItersPerSeed; ++i) {
      const bool check_crc = (i & 1) == 0;
      const Bytes mut =
          m.mutate(ConstByteSpan{data_pkt}, ConstByteSpan{ack_pkt});
      ++res.mutations;
      auto r = rd::ReliableDatagram::parse_packet(ConstByteSpan{mut},
                                                  check_crc);
      if (!r.ok()) continue;
      ++res.accepted;
      check_crc ? ++accepted_crc : ++accepted_nocrc;
      if (r->type < 1 || r->type > 3 ||
          r->body.size() > mut.size() - rd::ReliableDatagram::kHeaderBytes)
        ++res.violations;
    }
  }
  // The CRC must make acceptance of damaged packets *rarer*; if it does
  // not, validation is dead code.
  if (accepted_nocrc <= accepted_crc) {
    ++res.violations;
    std::fprintf(stderr, "rd crc asymmetry violation: crc=%llu nocrc=%llu\n",
                 static_cast<unsigned long long>(accepted_crc),
                 static_cast<unsigned long long>(accepted_nocrc));
  }
  return res;
}

// --------------------------------------------------------------------------
// MPA FPDU streams, fed in randomized chunk sizes.
// --------------------------------------------------------------------------

FormatResult fuzz_mpa() {
  FormatResult res;
  res.name = "mpa stream";
  for (u64 seed : kSeeds) {
    fuzz::Mutator m(seed + 4);
    for (int i = 0; i < kItersPerSeed / 5; ++i) {  // stream iters are pricier
      mpa::MpaConfig cfg;
      cfg.use_markers = (i & 1) != 0;
      cfg.use_crc = (i & 2) != 0;
      mpa::MpaSender tx(cfg);
      Bytes stream;
      for (int f = 0; f < 3; ++f) {
        const Bytes ulpdu = pattern(40 + 64 * f, static_cast<u32>(f));
        tx.frame(stream, ConstByteSpan{ulpdu});
      }
      const Bytes mut = m.mutate(ConstByteSpan{stream});
      ++res.mutations;

      mpa::MpaReceiver rx(cfg);
      std::size_t delivered = 0;
      rx.on_ulpdu([&](ConstByteSpan u, bool) { delivered += u.size(); });
      std::size_t off = 0;
      bool poisoned = false;
      while (off < mut.size()) {
        const std::size_t n =
            std::min<std::size_t>(1 + m.rng().below(600), mut.size() - off);
        if (!rx.consume(ConstByteSpan{mut}.subspan(off, n)).ok()) {
          poisoned = true;
          break;
        }
        off += n;
      }
      if (!poisoned) ++res.accepted;
      if (delivered > mut.size()) ++res.violations;  // invented bytes
    }
  }
  return res;
}

// --------------------------------------------------------------------------
// SIP messages: parse -> serialize -> parse.
// --------------------------------------------------------------------------

FormatResult fuzz_sip() {
  FormatResult res;
  res.name = "sip message";
  const auto req =
      sip::make_request(sip::Method::kInvite, "alice", "bob", "call-1", 1);
  const Bytes base_req = req.serialize();
  const Bytes base_rsp = sip::make_response(req, 200, "OK").serialize();
  for (u64 seed : kSeeds) {
    fuzz::Mutator m(seed + 5);
    for (int i = 0; i < kItersPerSeed; ++i) {
      const bool use_req = (i & 1) == 0;
      const Bytes& base = use_req ? base_req : base_rsp;
      const Bytes mut =
          m.mutate(ConstByteSpan{base},
                   ConstByteSpan{use_req ? base_rsp : base_req});
      ++res.mutations;
      auto r = sip::SipMessage::parse(ConstByteSpan{mut});
      if (!r.ok()) continue;
      ++res.accepted;
      if (r->body.size() > mut.size() || r->headers.size() > 128) {
        ++res.violations;
        continue;
      }
      // Round-trip: the serializer normalizes Content-Length (strips any
      // parsed copies, regenerates from the body), so compare the semantic
      // fields and the headers *minus* Content-Length.
      const auto non_cl = [](const sip::SipMessage& msg) {
        std::size_t n = 0;
        for (const auto& [k, v] : msg.headers)
          if (k != "Content-Length") ++n;
        return n;
      };
      const Bytes rebuilt = r->serialize();
      auto r2 = sip::SipMessage::parse(ConstByteSpan{rebuilt});
      ++res.roundtrip_checked;
      if (!r2.ok() || r2->method != r->method ||
          r2->status_code != r->status_code ||
          r2->request_uri != r->request_uri || r2->body != r->body ||
          non_cl(*r2) != non_cl(*r)) {
        ++res.violations;
        std::fprintf(stderr, "sip round-trip violation (seed %llx it %d)\n",
                     static_cast<unsigned long long>(seed), i);
      }
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  bench::banner("Fuzz campaign — multi-seed parser survival + round-trip",
                "ISSUE 4 hardening: parsers never crash, never over-read, "
                "and re-serialize exactly what they accepted");
  std::printf("seeds:");
  for (u64 s : kSeeds)
    std::printf(" %llx", static_cast<unsigned long long>(s));
  std::printf("  (%d mutations each per format)\n\n", kItersPerSeed);

  const FormatResult results[] = {fuzz_ddp(),       fuzz_read_request(),
                                  fuzz_terminate(), fuzz_rd_packet(),
                                  fuzz_mpa(),       fuzz_sip()};

  u64 violations = 0;
  TablePrinter t({"format", "mutations", "accepted", "round-trips",
                  "violations", "verdict"});
  for (const FormatResult& r : results) {
    violations += r.violations;
    t.add_row({r.name, std::to_string(r.mutations),
               std::to_string(r.accepted), std::to_string(r.roundtrip_checked),
               std::to_string(r.violations),
               r.violations == 0 ? "PASS" : "FAIL"});
  }
  t.print();

  if (violations > 0) {
    std::printf("\n%llu violation(s) — fuzz campaign FAILED\n",
                static_cast<unsigned long long>(violations));
    return 1;
  }
  std::printf("\nall parsers held — fuzz campaign PASSED\n");
  return 0;
}
