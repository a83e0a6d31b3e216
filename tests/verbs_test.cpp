// Verbs layer tests: datagram loss semantics (buffer recovery, relaxed
// error rules), Write-Record partial placement end-to-end, CQ behaviour,
// multi-peer UD scalability, the RD-mode QP, the UD RDMA Read extension,
// the UD wire format and the churn of each verbs resource.
#include <gtest/gtest.h>

#include "ddp/header.hpp"
#include "ledger_check.hpp"
#include "rdmap/message.hpp"
#include "rdmap/terminate.hpp"
#include "simnet/topology.hpp"
#include "verbs/device.hpp"
#include "verbs/qp_rc.hpp"
#include "verbs/qp_ud.hpp"

namespace dgiwarp {
namespace {

using verbs::Completion;
using verbs::RecvWr;
using verbs::SendWr;
using verbs::WcOpcode;
using verbs::WrOpcode;

struct Rig {
  explicit Rig(verbs::DeviceConfig cfg = {})
      : a(topo, "a"), b(topo, "b"), dev_a(a, cfg), dev_b(b, cfg),
        pd_a(a), pd_b(b), cq_a(dev_a.create_cq()), cq_b(dev_b.create_cq()) {}

  std::shared_ptr<verbs::UdQueuePair> ud_pair_a(bool reliable = false) {
    return *dev_a.create_ud_qp({&pd_a, cq_a.get(), cq_a.get(), 0, reliable});
  }
  std::shared_ptr<verbs::UdQueuePair> ud_pair_b(bool reliable = false) {
    return *dev_b.create_ud_qp({&pd_b, cq_b.get(), cq_b.get(), 0, reliable});
  }
  u64 count(const std::string& key) {
    return topo.sim().telemetry().counter_value(key);
  }

  sim::Topology topo;
  host::Host a, b;
  verbs::Device dev_a, dev_b;
  verbs::ProtectionDomain pd_a;
  verbs::ProtectionDomain pd_b;
  std::shared_ptr<verbs::CompletionQueue> cq_a;
  std::shared_ptr<verbs::CompletionQueue> cq_b;
};

TEST(UdQp, LostMessageRecoversReceiveBuffer) {
  verbs::DeviceConfig cfg;
  cfg.ud_message_timeout = 5 * kMillisecond;
  Rig r(cfg);
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  // Drop one mid-message wire fragment of a multi-datagram message: the
  // 128KB message = 2 datagrams; kill one fragment of the first.
  r.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{5});
    return f;
  }());

  Bytes msg = make_pattern(128 * KiB, 1);
  Bytes sink(128 * KiB, 0);
  ASSERT_TRUE(qb->post_recv(RecvWr{77, ByteSpan{sink}}).ok());
  SendWr wr;
  wr.wr_id = 1;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  ASSERT_TRUE(qa->post_send(wr).ok());

  r.topo.sim().run();  // includes GC

  // The receive WR comes back with an error completion (buffer recovery).
  auto wc = r.cq_b->poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->wr_id, 77u);
  EXPECT_EQ(wc->status.code(), Errc::kMessageDropped);
  EXPECT_EQ(r.count("verbs.ud.expired_messages"), 1u);
  // Relaxed error rules: the QP is still usable.
  EXPECT_EQ(qb->state(), verbs::QpState::kRts);

  // Prove it by sending again on a clean link.
  r.topo.host_uplink(0).set_faults(sim::Faults::none());
  ASSERT_TRUE(qb->post_recv(RecvWr{78, ByteSpan{sink}}).ok());
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();
  bool delivered = false;
  while (auto c = r.cq_b->poll())
    if (c->status.ok() && c->wr_id == 78) delivered = true;
  EXPECT_TRUE(delivered);
}

TEST(UdQp, WriteRecordPartialPlacementEndToEnd) {
  verbs::DeviceConfig cfg;
  cfg.ud_message_timeout = 5 * kMillisecond;
  Rig r(cfg);
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();

  // 192KB = 3 stack-level datagrams (~44 fragments each); kill one fragment
  // of the SECOND datagram so segment 2 dies but 1 and 3 (with LAST) land.
  r.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{50});
    return f;
  }());

  Bytes region(192 * KiB, 0);
  auto mr = r.pd_b.register_memory(ByteSpan{region},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);
  Bytes msg = make_pattern(192 * KiB, 2);
  SendWr wr;
  wr.opcode = WrOpcode::kWriteRecord;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  wr.remote_stag = mr.stag;
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();

  std::optional<Completion> rec;
  while (auto c = r.cq_b->poll())
    if (c->opcode == WcOpcode::kRecvWriteRecord) rec = c;
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->validity.ranges().size(), 2u);  // [seg1][gap][seg3]
  EXPECT_LT(rec->validity.valid_bytes(), msg.size());
  EXPECT_GT(rec->validity.valid_bytes(), msg.size() / 2);
  // Placed ranges hold correct bytes.
  for (const auto& range : rec->validity.ranges()) {
    EXPECT_TRUE(std::equal(
        msg.begin() + range.offset, msg.begin() + range.offset + range.length,
        region.begin() + range.offset));
  }
}

TEST(UdQp, WriteRecordLostFinalSegmentDropsRecord) {
  verbs::DeviceConfig cfg;
  cfg.ud_message_timeout = 5 * kMillisecond;
  Rig r(cfg);
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  // 128 KiB = datagrams of 45+45+1 wire fragments; kill the final
  // (notifying) datagram's single fragment, #91.
  r.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{91});
    return f;
  }());

  Bytes region(128 * KiB, 0);
  auto mr = r.pd_b.register_memory(ByteSpan{region},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);
  Bytes msg = make_pattern(128 * KiB, 3);
  SendWr wr;
  wr.opcode = WrOpcode::kWriteRecord;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  wr.remote_stag = mr.stag;
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();

  while (auto c = r.cq_b->poll())
    EXPECT_NE(c->opcode, WcOpcode::kRecvWriteRecord);
  EXPECT_EQ(
      r.topo.sim().telemetry().counter("rdmap.write_record.expired").value(),
      1u);
  EXPECT_EQ(qb->state(), verbs::QpState::kRts);
}

TEST(UdQp, WriteRecordToBadStagReportsWithoutKillingQp) {
  Rig r;
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  Bytes msg(100, 1);
  SendWr wr;
  wr.opcode = WrOpcode::kWriteRecord;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  wr.remote_stag = 0xBAD;
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();
  EXPECT_EQ(r.count("verbs.ud.placement_errors"), 1u);
  EXPECT_EQ(r.count("verbs.ud.terminates_rx"), 1u);  // reported back in-band
  EXPECT_EQ(qa->state(), verbs::QpState::kRts);
  EXPECT_EQ(qb->state(), verbs::QpState::kRts);
}

TEST(UdQp, PlainRdmaWriteIsRejected) {
  Rig r;
  auto qa = r.ud_pair_a();
  Bytes msg(10, 0);
  SendWr wr;
  wr.opcode = WrOpcode::kRdmaWrite;
  wr.local = ConstByteSpan{msg};
  EXPECT_EQ(qa->post_send(wr).code(), Errc::kUnsupported);
}

TEST(UdQp, CorruptedSegmentDroppedByCrc) {
  Rig r;
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  // Complementary to the fault-model tests below: a raw garbage datagram
  // aimed straight at the QP's UDP port also dies on the segment CRC.
  auto* raw = *r.a.udp().open(0);
  Bytes junk = make_pattern(200, 9);
  (void)raw->send_to({r.b.addr(), qb->local_port()}, ConstByteSpan{junk});
  r.topo.sim().run();
  EXPECT_EQ(r.count("verbs.ud.crc_drops"), 1u);
  EXPECT_EQ(qb->state(), verbs::QpState::kRts);
  (void)qa;
}

TEST(UdQp, InFlightCorruptionDroppedByCrcQpStaysUsable) {
  // A fault-injected bit flip in the DDP payload must be caught by the
  // segment CRC32: the datagram dies silently (crc_drops), never escapes
  // (crc_escapes == 0), and the QP keeps working once the channel heals.
  Rig r;
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  // Wire layout: IP(20) + UDP(8) + DDP header(32) + payload; offset 62
  // strikes payload byte 2 of the first (and only) datagram.
  r.topo.host_uplink(0).set_faults(
      sim::Faults::targeted_corruption({{1, 62, 0xFF}}));

  Bytes sink(64, 0);
  ASSERT_TRUE(qb->post_recv(RecvWr{1, ByteSpan{sink}}).ok());
  Bytes msg = make_pattern(64, 5);
  SendWr wr;
  wr.wr_id = 10;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();

  EXPECT_EQ(r.count("verbs.ud.crc_drops"), 1u);
  EXPECT_EQ(r.count("verbs.ud.crc_escapes"), 0u);
  EXPECT_EQ(r.count("simnet.link.frames_corrupted"), 1u);
  EXPECT_EQ(qb->state(), verbs::QpState::kRts);  // relaxed UD error rules

  // Channel heals: the same QP delivers the next message into the still
  // outstanding receive buffer.
  r.topo.host_uplink(0).set_faults(sim::Faults::none());
  wr.wr_id = 11;
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();
  auto c = r.cq_b->poll();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(sink, msg);
}

TEST(UdQp, CrcOffMeasuresSilentCorruptionEscape) {
  // The CRC ablation: with ud_crc disabled the corrupted datagram is
  // *accepted* and the taint oracle counts the escape — the measurement the
  // corruption sweep relies on.
  verbs::DeviceConfig cfg;
  cfg.ud_crc = false;
  Rig r(cfg);
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  r.topo.host_uplink(0).set_faults(
      sim::Faults::targeted_corruption({{1, 62, 0xFF}}));

  Bytes sink(64, 0);
  ASSERT_TRUE(qb->post_recv(RecvWr{1, ByteSpan{sink}}).ok());
  Bytes msg = make_pattern(64, 5);
  SendWr wr;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();

  EXPECT_EQ(r.count("verbs.ud.crc_drops"), 0u);
  EXPECT_EQ(r.count("verbs.ud.crc_escapes"), 1u);
  // The message was delivered -- wrongly. Byte 2 carries the struck bit.
  auto c = r.cq_b->poll();
  ASSERT_TRUE(c.has_value());
  EXPECT_NE(sink, msg);
  EXPECT_EQ(sink[2], static_cast<u8>(msg[2] ^ 0xFF));
}

TEST(UdQp, NoPostedBufferDropsDatagramOnly) {
  Rig r;
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  Bytes msg(100, 1);
  SendWr wr;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();
  EXPECT_EQ(r.count("verbs.ud.no_buffer_drops"), 1u);
  EXPECT_EQ(qb->state(), verbs::QpState::kRts);
}

TEST(UdQp, OneQpServesManyPeers) {
  // The connectionless scalability claim: one QP talks to N peers, with
  // per-source completions.
  sim::Topology topo;
  host::Host server_host(topo, "server");
  verbs::Device server_dev(server_host);
  verbs::ProtectionDomain pd(server_host);
  auto cq = server_dev.create_cq();
  auto server_qp =
      *server_dev.create_ud_qp({&pd, cq.get(), cq.get(), 4000, false});

  constexpr int kPeers = 8;
  std::vector<std::unique_ptr<host::Host>> hosts;
  std::vector<std::unique_ptr<verbs::Device>> devs;
  std::vector<std::unique_ptr<verbs::ProtectionDomain>> pds;
  std::vector<std::shared_ptr<verbs::CompletionQueue>> cqs;
  std::vector<std::shared_ptr<verbs::UdQueuePair>> qps;
  Bytes sink(256, 0);
  for (int i = 0; i < kPeers; ++i) {
    hosts.push_back(std::make_unique<host::Host>(
        topo, "peer" + std::to_string(i)));
    devs.push_back(std::make_unique<verbs::Device>(*hosts.back()));
    pds.push_back(std::make_unique<verbs::ProtectionDomain>(*hosts.back()));
    cqs.push_back(devs.back()->create_cq());
    qps.push_back(*devs.back()->create_ud_qp(
        {pds.back().get(), cqs.back().get(), cqs.back().get(), 0, false}));
    (void)server_qp->post_recv(
        RecvWr{static_cast<u64>(i), ByteSpan{sink}});
  }
  for (int i = 0; i < kPeers; ++i) {
    Bytes msg = make_pattern(64, static_cast<u32>(i));
    SendWr wr;
    wr.local = ConstByteSpan{msg};
    wr.remote = {server_qp->local_ep(), server_qp->qpn()};
    ASSERT_TRUE(qps[static_cast<std::size_t>(i)]->post_send(wr).ok());
  }
  topo.sim().run();
  std::set<u32> sources;
  while (auto c = cq->poll())
    if (c->status.ok() && c->opcode == WcOpcode::kRecv)
      sources.insert(c->src.ip);
  EXPECT_EQ(sources.size(), static_cast<std::size_t>(kPeers));
}

TEST(UdQp, ReliableModeDeliversUnderLoss) {
  verbs::DeviceConfig cfg;
  cfg.rd.max_retries = 30;
  Rig r(cfg);
  auto qa = r.ud_pair_a(/*reliable=*/true);
  auto qb = r.ud_pair_b(/*reliable=*/true);
  r.topo.host_uplink(0).set_faults(sim::Faults::bernoulli(0.2));

  // Single-fragment datagrams: at 20% frame loss a 32 KiB datagram (23
  // fragments) would almost never survive intact — RD retransmits whole
  // datagrams, it cannot beat fragmentation loss amplification.
  Bytes msg = make_pattern(1 * KiB, 4);
  Bytes sink(1 * KiB, 0);
  for (u64 i = 0; i < 10; ++i)
    ASSERT_TRUE(qb->post_recv(RecvWr{i, ByteSpan{sink}}).ok());
  SendWr wr;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();
  int delivered = 0;
  while (auto c = r.cq_b->poll())
    if (c->status.ok() && c->opcode == WcOpcode::kRecv) ++delivered;
  EXPECT_EQ(delivered, 10);  // RD made an unreliable link lossless
  EXPECT_EQ(sink, msg);
}

TEST(UdQp, RdmaReadExtensionDisabledByDefault) {
  Rig r;
  auto qa = r.ud_pair_a();
  Bytes sink(100, 0);
  SendWr wr;
  wr.opcode = WrOpcode::kRdmaRead;
  wr.read_sink = ByteSpan{sink};
  wr.read_len = 100;
  EXPECT_EQ(qa->post_send(wr).code(), Errc::kUnsupported);
}

TEST(UdQp, RdmaReadExtensionWorksWhenEnabled) {
  verbs::DeviceConfig cfg;
  cfg.enable_ud_read = true;  // the paper's future-work proposal
  Rig r(cfg);
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();

  Bytes remote_data = make_pattern(100 * KiB, 6);
  auto mr = r.pd_b.register_memory(ByteSpan{remote_data},
                                   verbs::kLocalRead | verbs::kRemoteRead);
  Bytes sink(100 * KiB, 0);
  SendWr wr;
  wr.wr_id = 5;
  wr.opcode = WrOpcode::kRdmaRead;
  wr.remote = {qb->local_ep(), qb->qpn()};
  wr.remote_stag = mr.stag;
  wr.read_sink = ByteSpan{sink};
  wr.read_len = static_cast<u32>(sink.size());
  ASSERT_TRUE(qa->post_send(wr).ok());
  auto done = r.cq_a->wait(100 * kMillisecond);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->opcode, WcOpcode::kRdmaRead);
  EXPECT_TRUE(done->status.ok());
  EXPECT_EQ(sink, remote_data);
}

TEST(UdQp, RdmaReadExtensionTimesOutOnLoss) {
  verbs::DeviceConfig cfg;
  cfg.enable_ud_read = true;
  cfg.ud_message_timeout = 5 * kMillisecond;
  Rig r(cfg);
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  // Kill replies.
  r.topo.host_uplink(1).set_faults(sim::Faults::bernoulli(1.0));

  Bytes remote_data(1024, 0);
  auto mr = r.pd_b.register_memory(ByteSpan{remote_data},
                                   verbs::kLocalRead | verbs::kRemoteRead);
  Bytes sink(1024, 0);
  SendWr wr;
  wr.wr_id = 6;
  wr.opcode = WrOpcode::kRdmaRead;
  wr.remote = {qb->local_ep(), qb->qpn()};
  wr.remote_stag = mr.stag;
  wr.read_sink = ByteSpan{sink};
  wr.read_len = 1024;
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();
  auto done = r.cq_a->poll();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status.code(), Errc::kMessageDropped);
}

TEST(UdQp, SendSeMarksCompletionSolicited) {
  Rig r;
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  Bytes msg(64, 1), sink(64, 0);
  ASSERT_TRUE(qb->post_recv(RecvWr{1, ByteSpan{sink}}).ok());
  SendWr wr;
  wr.opcode = WrOpcode::kSendSE;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  ASSERT_TRUE(qa->post_send(wr).ok());
  auto wc = r.cq_b->wait(10 * kMillisecond);
  ASSERT_TRUE(wc.has_value());
  EXPECT_TRUE(wc->solicited);
}

TEST(UdQp, UnsignaledSendsProduceNoCompletion) {
  Rig r;
  auto qa = r.ud_pair_a();
  auto qb = r.ud_pair_b();
  Bytes msg(64, 1), sink(64, 0);
  ASSERT_TRUE(qb->post_recv(RecvWr{1, ByteSpan{sink}}).ok());
  SendWr wr;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  wr.signaled = false;
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();
  // Receiver saw it; sender CQ stays empty.
  EXPECT_TRUE(r.cq_b->poll().has_value());
  EXPECT_FALSE(r.cq_a->poll().has_value());
}

// Every field of a DDP header parsed off the wire against the expected one.
void expect_header(const ddp::SegmentHeader& got,
                   const ddp::SegmentHeader& want) {
  EXPECT_EQ(got.control, want.control);
  EXPECT_EQ(got.queue, want.queue);
  EXPECT_EQ(got.stag, want.stag);
  EXPECT_EQ(got.to, want.to);
  EXPECT_EQ(got.msn, want.msn);
  EXPECT_EQ(got.mo, want.mo);
  EXPECT_EQ(got.msg_len, want.msg_len);
  EXPECT_EQ(got.src_qpn, want.src_qpn);
}

TEST(UdQp, WireFormatSeenByRawSocket) {
  // A raw UDP socket on the peer host parses each datagram the UD QP emits
  // (DDP CRC on) and checks every header field of each segment kind: the
  // datagram-iWARP wire format, written out here field by field.
  verbs::DeviceConfig cfg;
  cfg.enable_ud_read = true;
  cfg.max_ud_payload = 1000;  // 32 B header + 964 B payload + 4 B CRC
  constexpr u32 kSeg = 964;
  constexpr u8 kTagged = ddp::kCtrlTagged, kLast = ddp::kCtrlLast;
  Rig r(cfg);
  auto qa = r.ud_pair_a();
  const u32 qpn = qa->qpn();
  host::UdpSocket* sock = *r.b.udp().open(4000);
  std::vector<Bytes> wire;
  sock->set_handler([&](host::Endpoint src, Bytes data, bool) {
    EXPECT_EQ(src, qa->local_ep());
    wire.push_back(std::move(data));
  });
  // Runs the simulation and parses what reached the socket since the last
  // call; the segments view `wire` until the next call.
  auto delivered = [&] {
    wire.clear();
    r.topo.sim().run();
    std::vector<ddp::ParsedSegment> segs;
    for (const Bytes& d : wire) {
      EXPECT_LE(d.size(), cfg.max_ud_payload);
      auto p = ddp::parse_segment(ConstByteSpan{d}, /*with_crc=*/true);
      EXPECT_TRUE(p.ok()) << p.status().to_string();
      if (p.ok()) segs.push_back(*p);
    }
    return segs;
  };
  const verbs::RemoteAddress peer{r.b.endpoint(4000), 9};

  // Multi-segment Send: untagged QN0, MSN 1 for this destination.
  const Bytes msg = make_pattern(2500, 1);
  SendWr wr;
  wr.local = ConstByteSpan{msg};
  wr.remote = peer;
  ASSERT_TRUE(qa->post_send(wr).ok());
  auto segs = delivered();
  ASSERT_EQ(segs.size(), 3u);
  for (u32 i = 0; i < 3; ++i) {
    const u32 mo = i * kSeg;
    const u8 last = i == 2 ? kLast : 0;
    expect_header(segs[i].header,
                  {.control = static_cast<u8>(last | 0x3), .queue = 0,
                   .stag = 0, .to = 0, .msn = 1, .mo = mo, .msg_len = 2500,
                   .src_qpn = qpn});
    EXPECT_TRUE(std::equal(segs[i].payload.begin(), segs[i].payload.end(),
                           msg.begin() + mo));
  }

  // SendSE: the next MSN on the same destination.
  wr.opcode = WrOpcode::kSendSE;
  wr.local = ConstByteSpan{msg}.subspan(0, 100);
  ASSERT_TRUE(qa->post_send(wr).ok());
  segs = delivered();
  ASSERT_EQ(segs.size(), 1u);
  expect_header(segs[0].header,
                {.control = kLast | 0x5, .queue = 0, .stag = 0, .to = 0,
                 .msn = 2, .mo = 0, .msg_len = 100, .src_qpn = qpn});

  // Write-Record: tagged, TO = remote offset + MO, the first message id.
  wr.opcode = WrOpcode::kWriteRecord;
  wr.local = ConstByteSpan{msg}.subspan(0, 2000);
  wr.remote_stag = 0x1234;
  wr.remote_offset = 500;
  ASSERT_TRUE(qa->post_send(wr).ok());
  segs = delivered();
  ASSERT_EQ(segs.size(), 3u);
  for (u32 i = 0; i < 3; ++i) {
    const u32 mo = i * kSeg;
    const u8 last = i == 2 ? kLast : 0;
    expect_header(segs[i].header,
                  {.control = static_cast<u8>(kTagged | last | 0x8),
                   .queue = 0, .stag = 0x1234, .to = 500u + mo, .msn = 1,
                   .mo = mo, .msg_len = 2000, .src_qpn = qpn});
  }

  // Read Request (extension): untagged QN1; the read id continues the
  // tagged message ids.
  Bytes sink(300, 0);
  wr.opcode = WrOpcode::kRdmaRead;
  wr.remote_stag = 0x5678;
  wr.remote_offset = 40;
  wr.read_sink = ByteSpan{sink};
  wr.read_len = 300;
  ASSERT_TRUE(qa->post_send(wr).ok());
  segs = delivered();
  ASSERT_EQ(segs.size(), 1u);
  expect_header(segs[0].header,
                {.control = kLast | 0x1, .queue = 1, .stag = 0, .to = 0,
                 .msn = 2, .mo = 0, .msg_len = 28, .src_qpn = qpn});
  auto req = rdmap::ReadRequestPayload::parse(segs[0].payload);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->sink_stag, 0u);
  EXPECT_EQ(req->sink_to, 0u);
  EXPECT_EQ(req->src_stag, 0x5678u);
  EXPECT_EQ(req->src_to, 40u);
  EXPECT_EQ(req->length, 300u);

  // Read Response to a Read Request from the socket: tagged, MSN = the
  // requester's read id, STag = the source STag, TO = MO.
  Bytes region = make_pattern(2000, 2);
  auto mr = r.pd_a.register_memory(ByteSpan{region},
                                   verbs::kLocalRead | verbs::kRemoteRead);
  const Bytes ask = rdmap::ReadRequestPayload{0, 0, mr.stag, 100, 1500}
                        .serialize();
  ASSERT_TRUE(sock->send_to(qa->local_ep(),
                            ConstByteSpan{ddp::build_segment(
                                {.control = kLast | 0x1, .queue = 1,
                                 .msn = 77,
                                 .msg_len = static_cast<u32>(ask.size()),
                                 .src_qpn = 9},
                                ConstByteSpan{ask}, true)})
                  .ok());
  segs = delivered();
  ASSERT_EQ(segs.size(), 2u);
  for (u32 i = 0; i < 2; ++i) {
    const u32 mo = i * kSeg;
    const u8 last = i == 1 ? kLast : 0;
    expect_header(segs[i].header,
                  {.control = static_cast<u8>(kTagged | last | 0x2),
                   .queue = 0, .stag = mr.stag, .to = mo, .msn = 77,
                   .mo = mo, .msg_len = 1500, .src_qpn = qpn});
    EXPECT_TRUE(std::equal(segs[i].payload.begin(), segs[i].payload.end(),
                           region.begin() + 100 + mo));
  }

  // A tagged RDMA Write is invalid over datagrams: the QP answers with a
  // Terminate on QN2 naming the offending MSN.
  const Bytes junk(10, 0xAB);
  ASSERT_TRUE(sock->send_to(qa->local_ep(),
                            ConstByteSpan{ddp::build_segment(
                                {.control = kTagged | kLast | 0x0,
                                 .stag = mr.stag, .msn = 55, .msg_len = 10,
                                 .src_qpn = 9},
                                ConstByteSpan{junk}, true)})
                  .ok());
  segs = delivered();
  ASSERT_EQ(segs.size(), 1u);
  expect_header(segs[0].header,
                {.control = kLast | 0x6, .queue = 2, .stag = 0, .to = 0,
                 .msn = 0, .mo = 0, .msg_len = 8, .src_qpn = qpn});
  auto term = rdmap::TerminateMessage::parse(segs[0].payload);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term->layer, rdmap::TermLayer::kDdp);
  EXPECT_EQ(term->error_code,
            static_cast<u8>(rdmap::TermError::kInvalidOpcode));
  EXPECT_EQ(term->context, 55u);
}

TEST(Cq, WaitTimesOutWhenNothingArrives) {
  Rig r;
  const TimeNs t0 = r.topo.sim().now();
  auto wc = r.cq_a->wait(3 * kMillisecond);
  EXPECT_FALSE(wc.has_value());
  EXPECT_GE(r.topo.sim().now() - t0, 3 * kMillisecond);
}

TEST(Cq, OverrunDropsAndCounts) {
  sim::Topology topo;
  host::Host h(topo, "h");
  verbs::CompletionQueue cq(h, 2);
  for (int i = 0; i < 5; ++i) cq.push(Completion{});
  EXPECT_EQ(cq.depth(), 2u);
  EXPECT_EQ(topo.sim().telemetry().counter_value("verbs.cq.overruns"), 3u);
}

TEST(Cq, BatchPoll) {
  sim::Topology topo;
  host::Host h(topo, "h");
  verbs::CompletionQueue cq(h, 16);
  for (u64 i = 0; i < 5; ++i) {
    Completion c;
    c.wr_id = i;
    cq.push(std::move(c));
  }
  auto batch = cq.poll(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].wr_id, 0u);
  EXPECT_EQ(cq.depth(), 2u);
}

TEST(RcQp, NoReceiveBufferIsFatalOnRc) {
  // RC keeps the strict standard rules, unlike UD.
  Rig r;
  std::shared_ptr<verbs::RcQueuePair> server;
  ASSERT_TRUE(r.dev_b
                  .rc_listen(800, {&r.pd_b, r.cq_b.get(), r.cq_b.get()},
                             [&](auto qp) { server = std::move(qp); })
                  .ok());
  auto client = *r.dev_a.rc_connect({&r.pd_a, r.cq_a.get(), r.cq_a.get()},
                                    r.b.endpoint(800));
  r.topo.sim().run_while_pending([&] { return server != nullptr; }, kSecond);
  ASSERT_NE(server, nullptr);
  Bytes msg(64, 1);
  SendWr wr;
  wr.local = ConstByteSpan{msg};
  ASSERT_TRUE(client->post_send(wr).ok());
  r.topo.sim().run_while_pending(
      [&] { return server->state() == verbs::QpState::kError; }, kSecond);
  EXPECT_EQ(server->state(), verbs::QpState::kError);
}

TEST(RcQp, WriteRecordOverReliableTransport) {
  // "This method is also valid for a reliable transport" (paper §IV.B.3).
  Rig r;
  std::shared_ptr<verbs::RcQueuePair> server;
  ASSERT_TRUE(r.dev_b
                  .rc_listen(800, {&r.pd_b, r.cq_b.get(), r.cq_b.get()},
                             [&](auto qp) { server = std::move(qp); })
                  .ok());
  auto client = *r.dev_a.rc_connect({&r.pd_a, r.cq_a.get(), r.cq_a.get()},
                                    r.b.endpoint(800));
  r.topo.sim().run_while_pending([&] { return server != nullptr; }, kSecond);
  ASSERT_NE(server, nullptr);

  Bytes region(64 * KiB, 0);
  auto mr = r.pd_b.register_memory(ByteSpan{region},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);
  Bytes msg = make_pattern(40'000, 8);
  SendWr wr;
  wr.opcode = WrOpcode::kWriteRecord;
  wr.local = ConstByteSpan{msg};
  wr.remote_stag = mr.stag;
  ASSERT_TRUE(client->post_send(wr).ok());
  auto rec = r.cq_b->wait(100 * kMillisecond);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->opcode, WcOpcode::kRecvWriteRecord);
  EXPECT_TRUE(rec->validity.complete(40'000));
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), region.begin()));
}

TEST(RcQp, LargeMessagesUnderFaultsArriveByteExact) {
  // Bulk RC traffic under the fault campaign's "combined storm" on the data
  // path. Loss makes TCP retransmit from the middle of its send buffer;
  // reordering and duplication park and re-deliver segments; 256 KiB
  // messages make FPDUs straddle TCP deliveries. Every byte of every Send
  // and RDMA Write must land exactly.
  Rig r;
  std::shared_ptr<verbs::RcQueuePair> server;
  ASSERT_TRUE(r.dev_b
                  .rc_listen(800, {&r.pd_b, r.cq_b.get(), r.cq_b.get()},
                             [&](auto qp) { server = std::move(qp); })
                  .ok());
  auto client = *r.dev_a.rc_connect({&r.pd_a, r.cq_a.get(), r.cq_a.get()},
                                    r.b.endpoint(800));
  r.topo.sim().run_while_pending([&] { return server != nullptr; }, kSecond);
  ASSERT_NE(server, nullptr);

  sim::Faults storm;
  storm.loss = std::make_unique<sim::BernoulliLoss>(0.02);
  storm.reorder_rate = 0.1;
  storm.reorder_delay = 100 * kMicrosecond;
  storm.jitter = 10 * kMicrosecond;
  storm.dup_rate = 0.1;
  r.topo.host_uplink(0).set_faults(std::move(storm));

  constexpr std::size_t kMessages = 8;
  constexpr std::size_t kLen = 256 * KiB;
  Bytes region(kMessages * kLen, 0);
  auto mr = r.pd_b.register_memory(ByteSpan{region},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);
  std::vector<Bytes> sinks(kMessages, Bytes(kLen, 0));
  std::vector<Bytes> writes, sends;
  for (std::size_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(server->post_recv(RecvWr{i, ByteSpan{sinks[i]}}).ok());
    writes.push_back(make_pattern(kLen - 3 * i, static_cast<u32>(100 + i)));
    sends.push_back(make_pattern(kLen - 5 * i, static_cast<u32>(200 + i)));
  }
  // Each Write goes ahead of a Send on the same stream, so the last receive
  // completion proves every Write was placed.
  for (std::size_t i = 0; i < kMessages; ++i) {
    SendWr w;
    w.opcode = WrOpcode::kRdmaWrite;
    w.local = ConstByteSpan{writes[i]};
    w.remote_stag = mr.stag;
    w.remote_offset = i * kLen;
    ASSERT_TRUE(client->post_send(w).ok());
    SendWr s;
    s.local = ConstByteSpan{sends[i]};
    ASSERT_TRUE(client->post_send(s).ok());
  }
  std::vector<Completion> recvs;
  const bool done = r.topo.sim().run_while_pending(
      [&] {
        while (auto c = r.cq_b->poll()) recvs.push_back(std::move(*c));
        return recvs.size() == kMessages;
      },
      60 * kSecond);
  ASSERT_TRUE(done) << recvs.size() << " of " << kMessages << " received";
  EXPECT_GT(r.topo.sim().telemetry().counter_value("hoststack.tcp.retransmits"),
            0u);
  for (std::size_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(recvs[i].status.ok()) << recvs[i].status.to_string();
    EXPECT_EQ(recvs[i].wr_id, i);
    EXPECT_EQ(recvs[i].byte_len, sends[i].size());
    EXPECT_TRUE(std::equal(sends[i].begin(), sends[i].end(), sinks[i].begin()))
        << "send " << i;
    EXPECT_TRUE(std::equal(writes[i].begin(), writes[i].end(),
                           region.begin() + static_cast<long>(i * kLen)))
        << "write " << i;
  }
  EXPECT_TRUE(client->connected());
  EXPECT_TRUE(server->connected());
}

TEST(RcQp, CorruptedFpduFailsCrcAndTerminates) {
  // The MPA CRC is the last line of defense when the TCP checksum is off
  // (the paper's CRC ablation): a corrupted FPDU must fail the CRC, raise a
  // Terminate, and move BOTH QPs to Error — never deliver damaged bytes.
  Rig r;
  r.a.tcp().set_validate_checksum(false);
  r.b.tcp().set_validate_checksum(false);
  std::shared_ptr<verbs::RcQueuePair> server;
  ASSERT_TRUE(r.dev_b
                  .rc_listen(800, {&r.pd_b, r.cq_b.get(), r.cq_b.get()},
                             [&](auto qp) { server = std::move(qp); })
                  .ok());
  auto client = *r.dev_a.rc_connect({&r.pd_a, r.cq_a.get(), r.cq_a.get()},
                                    r.b.endpoint(800));
  r.topo.sim().run();  // quiesce the handshake completely
  ASSERT_NE(server, nullptr);

  // Strike the next a->b frame (the data FPDU) inside the TCP payload:
  // IP(20) + TCP(30) = 50, so offset 55 lands in the MPA/DDP bytes.
  r.topo.host_uplink(0).set_faults(
      sim::Faults::targeted_corruption({{1, 55, 0xFF}}));

  Bytes sink(64, 0);
  ASSERT_TRUE(server->post_recv(RecvWr{1, ByteSpan{sink}}).ok());
  Bytes msg = make_pattern(64, 6);
  SendWr wr;
  wr.local = ConstByteSpan{msg};
  ASSERT_TRUE(client->post_send(wr).ok());
  r.topo.sim().run();

  EXPECT_GE(server->stats().fpdu_crc_failures, 1u);
  EXPECT_EQ(server->stats().crc_escapes, 0u);
  EXPECT_EQ(server->state(), verbs::QpState::kError);
  // The Terminate made it back over the (clean) b->a direction before the
  // stream came down, so the client learned the real reason.
  EXPECT_EQ(client->state(), verbs::QpState::kError);
  EXPECT_GE(client->stats().terminates_rx, 1u);
  EXPECT_EQ(r.topo.sim().telemetry().counter_value(
                "verbs.rc.fpdu_crc_failures"),
            server->stats().fpdu_crc_failures);
  // The corrupted bytes never reached the application buffer.
  EXPECT_EQ(sink, Bytes(64, 0));
}

TEST(RcQp, CorruptedTerminateTearsDownWithoutLoop) {
  // Corrupt BOTH directions: the data FPDU a->b dies on the MPA CRC, and
  // the resulting Terminate b->a is itself damaged in flight. The client
  // must treat the broken Terminate as one more CRC failure and tear down
  // locally — not answer it (no terminate ping-pong), not hang the sim.
  Rig r;
  r.a.tcp().set_validate_checksum(false);
  r.b.tcp().set_validate_checksum(false);
  std::shared_ptr<verbs::RcQueuePair> server;
  ASSERT_TRUE(r.dev_b
                  .rc_listen(800, {&r.pd_b, r.cq_b.get(), r.cq_b.get()},
                             [&](auto qp) { server = std::move(qp); })
                  .ok());
  auto client = *r.dev_a.rc_connect({&r.pd_a, r.cq_a.get(), r.cq_a.get()},
                                    r.b.endpoint(800));
  r.topo.sim().run();
  ASSERT_NE(server, nullptr);

  // a->b: corrupt the data FPDU. b->a (= a's ingress): corrupt every frame
  // for a while, so whichever frame carries the Terminate arrives damaged.
  r.topo.host_uplink(0).set_faults(
      sim::Faults::targeted_corruption({{1, 55, 0xFF}}));
  std::vector<sim::CorruptTarget> all;
  for (u64 i = 1; i <= 64; ++i) all.push_back({i, 55, 0x40});
  r.topo.host_downlink(0).set_faults(sim::Faults::targeted_corruption(all));

  Bytes msg = make_pattern(64, 7);
  SendWr wr;
  wr.local = ConstByteSpan{msg};
  ASSERT_TRUE(client->post_send(wr).ok());
  // run() returning at all proves teardown converges (no terminate loop,
  // no immortal retransmission).
  r.topo.sim().run();

  EXPECT_EQ(server->state(), verbs::QpState::kError);
  EXPECT_EQ(client->state(), verbs::QpState::kError);
  EXPECT_GE(server->stats().fpdu_crc_failures, 1u);
  // The client never saw a parseable Terminate...
  EXPECT_EQ(client->stats().terminates_rx, 0u);
  // ...and the server never got one echoed back at it.
  EXPECT_EQ(server->stats().terminates_rx, 0u);
}

TEST(RcQp, DisconnectMovesPeerToError) {
  Rig r;
  std::shared_ptr<verbs::RcQueuePair> server;
  ASSERT_TRUE(r.dev_b
                  .rc_listen(800, {&r.pd_b, r.cq_b.get(), r.cq_b.get()},
                             [&](auto qp) { server = std::move(qp); })
                  .ok());
  auto client = *r.dev_a.rc_connect({&r.pd_a, r.cq_a.get(), r.cq_a.get()},
                                    r.b.endpoint(800));
  r.topo.sim().run_while_pending([&] { return server != nullptr; }, kSecond);
  ASSERT_NE(server, nullptr);
  client->disconnect();
  r.topo.sim().run_while_pending(
      [&] { return server->state() == verbs::QpState::kError; }, kSecond);
  EXPECT_EQ(server->state(), verbs::QpState::kError);
}

TEST(QueuePair, PostRecvRejectedInErrorState) {
  Rig r;
  auto qa = r.ud_pair_a();
  qa->set_error(Status(Errc::kProtocolError, "test"));
  Bytes buf(10, 0);
  EXPECT_FALSE(qa->post_recv(RecvWr{1, ByteSpan{buf}}).ok());
  EXPECT_FALSE(qa->post_send(SendWr{}).ok());
}

TEST(QueuePair, ErrorStateFlushesPostedReceives) {
  Rig r;
  auto qa = r.ud_pair_a();
  Bytes buf(10, 0);
  ASSERT_TRUE(qa->post_recv(RecvWr{11, ByteSpan{buf}}).ok());
  ASSERT_TRUE(qa->post_recv(RecvWr{12, ByteSpan{buf}}).ok());
  qa->set_error(Status(Errc::kProtocolError, "test"));
  int flushed = 0;
  while (auto c = r.cq_a->poll()) {
    EXPECT_FALSE(c->status.ok());
    ++flushed;
  }
  EXPECT_EQ(flushed, 2);
}

TEST(Device, LedgerChargesQpState) {
  Rig r;
  const i64 before = r.a.ledger().category("iwarp.ud_qp");
  auto qa = r.ud_pair_a();
  EXPECT_GT(r.a.ledger().category("iwarp.ud_qp"), before);
  const i64 with_qp = r.a.ledger().category("iwarp.ud_qp");
  qa.reset();
  EXPECT_LT(r.a.ledger().category("iwarp.ud_qp"), with_qp);
}

// Churn: each resource is built and destroyed 1,000 times on one Device (50
// times for RC, where each cycle is a connection), and every ledger
// category must return to its baseline. A resource belongs to its caller,
// so nothing may pile up on the Device or the host.
constexpr int kChurn = 1'000;

TEST(Churn, ProtectionDomainReleasesWhatIsStillRegistered) {
  Rig r;
  const auto baseline = r.a.ledger().categories();
  Bytes region(8 * KiB, 0);
  for (int i = 0; i < kChurn; ++i) {
    verbs::ProtectionDomain pd(r.a);
    const auto kept = pd.register_memory(ByteSpan{region}, verbs::kLocalWrite);
    const auto gone = pd.register_memory(ByteSpan{region}, verbs::kLocalRead);
    ASSERT_TRUE(pd.deregister(gone.stag).ok());
    ASSERT_TRUE(pd.stags().contains(kept.stag));
    ASSERT_GT(r.a.ledger().category("iwarp.mr"), 0);
  }
  expect_ledger_at(r.a.ledger(), baseline);
}

TEST(Churn, CompletionQueueDiesWithItsLastOwner) {
  Rig r;
  const auto baseline = r.a.ledger().categories();
  const Bytes msg(64, 1);
  for (int i = 0; i < kChurn; ++i) {
    std::weak_ptr<verbs::CompletionQueue> weak;
    {
      auto cq = r.dev_a.create_cq();
      weak = cq;
      auto qp = *r.dev_a.create_ud_qp({&r.pd_a, cq.get(), cq.get(), 0, false});
      SendWr wr;
      wr.local = ConstByteSpan{msg};
      wr.remote = {r.b.endpoint(7000), 0};
      ASSERT_TRUE(qp->post_send(wr).ok());
    }
    // Its send completion is still on the way, and holds the CQ until it
    // lands.
    ASSERT_FALSE(weak.expired());
    r.topo.sim().run();
    ASSERT_TRUE(weak.expired());
  }
  expect_ledger_at(r.a.ledger(), baseline);
}

TEST(Churn, UdQueuePairReleasesItsPortAndState) {
  Rig r;
  const auto baseline = r.a.ledger().categories();
  Bytes buf(64, 0);
  for (int i = 0; i < kChurn; ++i) {
    auto qp = r.dev_a.create_ud_qp(
        {&r.pd_a, r.cq_a.get(), r.cq_a.get(), 7000, /*reliable=*/i % 2 == 1});
    ASSERT_TRUE(qp.ok()) << qp.status().to_string();
    ASSERT_TRUE((*qp)->post_recv(RecvWr{1, ByteSpan{buf}}).ok());
  }
  expect_ledger_at(r.a.ledger(), baseline);
}

TEST(Churn, RcQueuePairsActiveAndPassive) {
  Rig r;
  std::shared_ptr<verbs::RcQueuePair> server;
  ASSERT_TRUE(r.dev_b
                  .rc_listen(800, {&r.pd_b, r.cq_b.get(), r.cq_b.get()},
                             [&](auto qp) { server = std::move(qp); })
                  .ok());
  const auto baseline_a = r.a.ledger().categories();
  const auto baseline_b = r.b.ledger().categories();
  auto& sim = r.topo.sim();
  for (int i = 0; i < 50; ++i) {
    auto client = *r.dev_a.rc_connect({&r.pd_a, r.cq_a.get(), r.cq_a.get()},
                                      r.b.endpoint(800));
    sim.run_while_pending([&] { return server && client->connected(); },
                          sim.now() + kSecond);
    ASSERT_TRUE(client->connected());
    ASSERT_NE(server, nullptr);
    client->disconnect();
    sim.run_while_pending(
        [&] { return server->state() == verbs::QpState::kError; },
        sim.now() + kSecond);
    ASSERT_EQ(server->state(), verbs::QpState::kError);
    client.reset();
    server.reset();
    sim.run_until(sim.now() + 10 * kMillisecond);
    // A closed TCP socket is freed at close, not when its voided
    // retransmit timer fires (at least 200 ms later).
    ASSERT_EQ(r.a.ledger().category("tcp.sock"), 0) << "cycle " << i;
    ASSERT_EQ(r.b.ledger().category("tcp.sock"), 0) << "cycle " << i;
  }
  expect_ledger_at(r.a.ledger(), baseline_a);
  expect_ledger_at(r.b.ledger(), baseline_b);
}

}  // namespace
}  // namespace dgiwarp
