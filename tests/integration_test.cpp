// Cross-module integration tests: behaviours that only emerge when the
// whole stack runs together — reordering, bursty loss, mixed traffic,
// applications over degraded links, and the perf harness itself.
#include <gtest/gtest.h>

#include "apps/media/media.hpp"
#include "apps/sip/agents.hpp"
#include "perf/harness.hpp"
#include "simnet/topology.hpp"
#include "verbs/qp_rc.hpp"
#include "verbs/qp_ud.hpp"

namespace dgiwarp {
namespace {

using verbs::RecvWr;
using verbs::SendWr;
using verbs::WcOpcode;
using verbs::WrOpcode;

struct Rig {
  explicit Rig(verbs::DeviceConfig cfg = {})
      : a(topo, "a"), b(topo, "b"), dev_a(a, cfg), dev_b(b, cfg),
        pd_a(a), pd_b(b), cq_a(dev_a.create_cq()), cq_b(dev_b.create_cq()) {}
  sim::Topology topo;
  host::Host a, b;
  verbs::Device dev_a, dev_b;
  verbs::ProtectionDomain pd_a;
  verbs::ProtectionDomain pd_b;
  std::shared_ptr<verbs::CompletionQueue> cq_a;
  std::shared_ptr<verbs::CompletionQueue> cq_b;
};

TEST(Integration, UdSurvivesFrameReordering) {
  // Jitter + reorder on the data path: untagged UD messages carry MO, so
  // out-of-order arrival within a message must still assemble correctly.
  Rig r;
  auto qa = *r.dev_a.create_ud_qp(
      {&r.pd_a, r.cq_a.get(), r.cq_a.get(), 0, false});
  auto qb = *r.dev_b.create_ud_qp(
      {&r.pd_b, r.cq_b.get(), r.cq_b.get(), 0, false});
  sim::Faults f;
  f.reorder_rate = 0.3;
  f.reorder_delay = 40 * kMicrosecond;
  f.jitter = 5 * kMicrosecond;
  r.topo.host_uplink(0).set_faults(std::move(f));

  // Multi-datagram message: datagram-level reordering across segments.
  Bytes msg = make_pattern(200 * KiB, 17);
  Bytes sink(200 * KiB, 0);
  ASSERT_TRUE(qb->post_recv(RecvWr{1, ByteSpan{sink}}).ok());
  SendWr wr;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  ASSERT_TRUE(qa->post_send(wr).ok());
  r.topo.sim().run();

  bool done = false;
  while (auto c = r.cq_b->poll())
    if (c->status.ok() && c->opcode == WcOpcode::kRecv) done = true;
  // Reordered IP fragments break kernel reassembly only if delayed past
  // the reassembly timeout, which this jitter cannot do.
  ASSERT_TRUE(done);
  EXPECT_EQ(sink, msg);
}

TEST(Integration, WriteRecordUnderBurstLoss) {
  // Gilbert-Elliott bursts: whole trains of fragments die together, the
  // worst case for fragmented datagrams; partial placement must still
  // report only genuinely-placed ranges.
  verbs::DeviceConfig cfg;
  cfg.ud_message_timeout = 10 * kMillisecond;
  Rig r(cfg);
  auto qa = *r.dev_a.create_ud_qp(
      {&r.pd_a, r.cq_a.get(), r.cq_a.get(), 0, false});
  auto qb = *r.dev_b.create_ud_qp(
      {&r.pd_b, r.cq_b.get(), r.cq_b.get(), 0, false});
  sim::Faults f;
  f.loss = std::make_unique<sim::GilbertElliottLoss>(0.002, 0.1, 0.0, 0.9);
  r.topo.host_uplink(0).set_faults(std::move(f));

  Bytes region(512 * KiB, 0);
  auto mr = r.pd_b.register_memory(ByteSpan{region},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);
  Bytes msg = make_pattern(512 * KiB, 23);
  for (int i = 0; i < 8; ++i) {
    SendWr wr;
    wr.opcode = WrOpcode::kWriteRecord;
    wr.local = ConstByteSpan{msg};
    wr.remote = {qb->local_ep(), qb->qpn()};
    wr.remote_stag = mr.stag;
    ASSERT_TRUE(qa->post_send(wr).ok());
  }
  r.topo.sim().run();

  int records = 0;
  while (auto c = r.cq_b->poll()) {
    if (c->opcode != WcOpcode::kRecvWriteRecord) continue;
    ++records;
    // Every reported range must hold exactly the sender's bytes.
    for (const auto& range : c->validity.ranges()) {
      ASSERT_LE(range.offset + range.length, msg.size());
      EXPECT_TRUE(std::equal(msg.begin() + range.offset,
                             msg.begin() + range.offset + range.length,
                             region.begin() + range.offset));
    }
  }
  // Some records complete (possibly partial); some lose their final
  // segment entirely. Both outcomes are legal; silence on all 8 is not.
  const u64 expired =
      r.topo.sim().telemetry().counter("rdmap.write_record.expired").value();
  EXPECT_GT(records + static_cast<int>(expired), 0);
  EXPECT_EQ(qb->state(), verbs::QpState::kRts);
}

TEST(Integration, MixedRcAndUdTrafficShareOneHostPair) {
  // An RC connection and a UD QP between the same two hosts, used
  // concurrently — the demux (TCP vs UDP, ports) must keep them apart.
  Rig r;
  auto ud_a = *r.dev_a.create_ud_qp(
      {&r.pd_a, r.cq_a.get(), r.cq_a.get(), 0, false});
  auto ud_b = *r.dev_b.create_ud_qp(
      {&r.pd_b, r.cq_b.get(), r.cq_b.get(), 0, false});
  std::shared_ptr<verbs::RcQueuePair> rc_b;
  ASSERT_TRUE(r.dev_b
                  .rc_listen(900, {&r.pd_b, r.cq_b.get(), r.cq_b.get()},
                             [&](auto qp) { rc_b = std::move(qp); })
                  .ok());
  auto rc_a = *r.dev_a.rc_connect({&r.pd_a, r.cq_a.get(), r.cq_a.get()},
                                  r.b.endpoint(900));
  r.topo.sim().run_while_pending([&] { return rc_b != nullptr; }, kSecond);
  ASSERT_NE(rc_b, nullptr);

  Bytes ud_msg = make_pattern(10'000, 1);
  Bytes rc_msg = make_pattern(20'000, 2);
  Bytes ud_sink(10'000, 0), rc_sink(20'000, 0);
  ASSERT_TRUE(ud_b->post_recv(RecvWr{1, ByteSpan{ud_sink}}).ok());
  ASSERT_TRUE(rc_b->post_recv(RecvWr{2, ByteSpan{rc_sink}}).ok());

  SendWr ud_wr;
  ud_wr.local = ConstByteSpan{ud_msg};
  ud_wr.remote = {ud_b->local_ep(), ud_b->qpn()};
  ASSERT_TRUE(ud_a->post_send(ud_wr).ok());
  SendWr rc_wr;
  rc_wr.local = ConstByteSpan{rc_msg};
  ASSERT_TRUE(rc_a->post_send(rc_wr).ok());
  r.topo.sim().run();

  int got = 0;
  while (auto c = r.cq_b->poll())
    if (c->status.ok() && c->opcode == WcOpcode::kRecv) ++got;
  EXPECT_EQ(got, 2);
  EXPECT_EQ(ud_sink, ud_msg);
  EXPECT_EQ(rc_sink, rc_msg);
}

TEST(Integration, ManyConcurrentWriteRecordSourcesOneTarget) {
  // Several sources write-record into disjoint slots of one target region
  // through one QP — the connectionless fan-in the paper motivates.
  sim::Topology topo;
  host::Host target_host(topo, "target");
  verbs::Device target_dev(target_host);
  verbs::ProtectionDomain pd(target_host);
  auto cq = target_dev.create_cq();
  auto target =
      *target_dev.create_ud_qp({&pd, cq.get(), cq.get(), 5000, false});

  constexpr std::size_t kSources = 6;
  constexpr std::size_t kSlot = 8 * KiB;
  Bytes region(kSources * kSlot, 0);
  auto mr = pd.register_memory(ByteSpan{region},
                               verbs::kLocalWrite | verbs::kRemoteWrite);

  std::vector<std::unique_ptr<host::Host>> hosts;
  std::vector<std::unique_ptr<verbs::Device>> devs;
  std::vector<std::unique_ptr<verbs::ProtectionDomain>> pds;
  std::vector<std::shared_ptr<verbs::CompletionQueue>> cqs;
  std::vector<std::shared_ptr<verbs::UdQueuePair>> qps;
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < kSources; ++i) {
    hosts.push_back(
        std::make_unique<host::Host>(topo, "src" + std::to_string(i)));
    devs.push_back(std::make_unique<verbs::Device>(*hosts.back()));
    pds.push_back(std::make_unique<verbs::ProtectionDomain>(*hosts.back()));
    cqs.push_back(devs.back()->create_cq());
    qps.push_back(*devs.back()->create_ud_qp(
        {pds.back().get(), cqs.back().get(), cqs.back().get(), 0, false}));
    payloads.push_back(make_pattern(kSlot, static_cast<u32>(i + 100)));
    SendWr wr;
    wr.opcode = WrOpcode::kWriteRecord;
    wr.local = ConstByteSpan{payloads.back()};
    wr.remote = {target->local_ep(), target->qpn()};
    wr.remote_stag = mr.stag;
    wr.remote_offset = i * kSlot;
    ASSERT_TRUE(qps.back()->post_send(wr).ok());
  }
  topo.sim().run();

  std::set<u64> bases;
  while (auto c = cq->poll())
    if (c->opcode == WcOpcode::kRecvWriteRecord) bases.insert(c->base_to);
  EXPECT_EQ(bases.size(), kSources);
  for (std::size_t i = 0; i < kSources; ++i)
    EXPECT_TRUE(std::equal(payloads[i].begin(), payloads[i].end(),
                           region.begin() + static_cast<long>(i * kSlot)));
}

TEST(Integration, MediaOverReliableDatagramsSurvivesLoss) {
  // RD-mode sockets under 2% loss: the stream arrives gap-free, the
  // paper's "reliable UDP" option at the application level.
  isock::ISockConfig cfg;
  cfg.reliable_dgram = true;
  sim::Topology topo;
  host::Host server_host(topo, "server"), client_host(topo, "client");
  verbs::Device dev_s(server_host), dev_c(client_host);
  isock::ISockStack io_s(dev_s, cfg), io_c(dev_c, cfg);
  topo.host_uplink(0).set_faults(sim::Faults::bernoulli(0.02));

  media::StreamParams p;
  p.burst_start = false;
  media::MediaServer server(io_s, p);
  ASSERT_TRUE(server.serve_udp(7000, 2 * MiB).ok());
  media::MediaClient client(io_c);
  auto res = client.run_udp(server_host.endpoint(7000), 256 * KiB,
                            20 * kSecond);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.sequence_gaps, 0u) << "RD must repair the 2% loss";
}

TEST(Integration, SipCallsSurviveLossViaRetransmission) {
  sim::Topology topo;
  host::Host server_host(topo, "server"), client_host(topo, "client");
  verbs::Device dev_s(server_host), dev_c(client_host);
  isock::ISockStack io_s(dev_s), io_c(dev_c);
  // Client egress.
  topo.host_uplink(1).set_faults(sim::Faults::bernoulli(0.15));

  sip::SipServer server(io_s, sip::Transport::kUd);
  ASSERT_TRUE(server.start().ok());
  topo.sim().run_until(topo.sim().now() + 2 * kMillisecond);
  sip::SipClient client(io_c, sip::Transport::kUd,
                        server_host.endpoint(5060));
  EXPECT_EQ(client.establish_calls(10, 30 * kSecond), 10u)
      << "SIP timer-A retransmission must recover lost INVITEs";
}

TEST(Integration, PerfHarnessModesAllFunctional) {
  for (perf::Mode m :
       {perf::Mode::kUdSendRecv, perf::Mode::kUdWriteRecord,
        perf::Mode::kRcSendRecv, perf::Mode::kRcRdmaWrite,
        perf::Mode::kRdSendRecv, perf::Mode::kRdWriteRecord}) {
    const auto lat = perf::measure_latency(m, 256, 4);
    EXPECT_GT(lat.half_rtt_us, 10.0) << perf::mode_name(m);
    EXPECT_LT(lat.half_rtt_us, 100.0) << perf::mode_name(m);
    const auto bwr = perf::measure_bandwidth(m, 4 * KiB, 16);
    EXPECT_GT(bwr.goodput_MBps, 10.0) << perf::mode_name(m);
    EXPECT_DOUBLE_EQ(bwr.delivered_frac, 1.0) << perf::mode_name(m);
  }
}

TEST(Integration, SeedChangesLossPatternNotCleanRuns) {
  perf::Options o1, o2;
  o1.seed = 1;
  o2.seed = 2;
  // Clean runs: seed-independent (nothing stochastic on the path).
  EXPECT_DOUBLE_EQ(
      perf::measure_bandwidth(perf::Mode::kUdSendRecv, 64 * KiB, 16, o1)
          .goodput_MBps,
      perf::measure_bandwidth(perf::Mode::kUdSendRecv, 64 * KiB, 16, o2)
          .goodput_MBps);
  // Lossy runs: different seeds, different drop patterns.
  o1.loss_rate = o2.loss_rate = 0.02;
  const auto a =
      perf::measure_bandwidth(perf::Mode::kUdSendRecv, 64 * KiB, 64, o1);
  const auto b =
      perf::measure_bandwidth(perf::Mode::kUdSendRecv, 64 * KiB, 64, o2);
  EXPECT_NE(a.messages_completed, b.messages_completed);
}

TEST(Integration, TcpZeroWindowRecoversViaWindowUpdate) {
  // A slow receiver closing its window must not deadlock the transfer.
  sim::Topology topo;
  host::Host a(topo, "a"), b(topo, "b");
  host::TcpSocket::Ptr srv;
  std::size_t rx = 0;
  (void)b.tcp().listen(80, [&](host::TcpSocket::Ptr s) {
    srv = s;
    s->on_data([&](ConstByteSpan d, bool) { rx += d.size(); });
  });
  auto cl = *a.tcp().connect({b.addr(), 80});
  bool up = false;
  cl->on_connect([&](Status) { up = true; });
  topo.sim().run_while_pending([&] { return up; }, kSecond);

  const Bytes data = make_pattern(1 * MiB, 31);
  std::size_t sent = 0;
  std::function<void()> pump = [&] {
    while (sent < data.size()) {
      const std::size_t n = cl->send(ConstByteSpan{data}.subspan(sent));
      if (n == 0) break;
      sent += n;
    }
  };
  cl->on_writable(pump);
  pump();
  const bool done = topo.sim().run_while_pending(
      [&] { return rx >= data.size(); }, 30 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(rx, data.size());
}

}  // namespace
}  // namespace dgiwarp
