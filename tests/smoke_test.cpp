// End-to-end smoke tests: two hosts on a fabric exchanging data through
// every major path (UD send/recv, UD Write-Record, RC send/recv, RC RDMA
// Write/Read). Deeper per-module suites live in the sibling test files.
#include <gtest/gtest.h>

#include "hoststack/host.hpp"
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

struct TwoHosts {
  sim::Topology topo;
  host::Host a{topo, "hostA"};
  host::Host b{topo, "hostB"};
  verbs::Device dev_a{a};
  verbs::Device dev_b{b};
  verbs::ProtectionDomain pd_a{a};
  verbs::ProtectionDomain pd_b{b};
  std::shared_ptr<verbs::CompletionQueue> cq_a = dev_a.create_cq();
  std::shared_ptr<verbs::CompletionQueue> cq_b = dev_b.create_cq();
};

TEST(Smoke, UdSendRecvSmallMessage) {
  TwoHosts t;
  auto qa = t.dev_a.create_ud_qp(
      {&t.pd_a, t.cq_a.get(), t.cq_a.get(), 7000, false});
  auto qb = t.dev_b.create_ud_qp(
      {&t.pd_b, t.cq_b.get(), t.cq_b.get(), 7000, false});
  ASSERT_TRUE(qa.ok()) << qa.status().to_string();
  ASSERT_TRUE(qb.ok()) << qb.status().to_string();

  Bytes msg = make_pattern(512, 42);
  Bytes sink(1024, 0);
  ASSERT_TRUE((*qb)->post_recv(RecvWr{1, ByteSpan{sink}}).ok());

  SendWr wr;
  wr.wr_id = 2;
  wr.opcode = WrOpcode::kSend;
  wr.local = ConstByteSpan{msg};
  wr.remote = {(*qb)->local_ep(), (*qb)->qpn()};
  ASSERT_TRUE((*qa)->post_send(wr).ok());

  auto send_done = t.cq_a->wait(10 * kMillisecond);
  ASSERT_TRUE(send_done.has_value());
  EXPECT_EQ(send_done->wr_id, 2u);
  EXPECT_TRUE(send_done->status.ok());

  auto recv_done = t.cq_b->wait(10 * kMillisecond);
  ASSERT_TRUE(recv_done.has_value());
  EXPECT_EQ(recv_done->wr_id, 1u);
  EXPECT_EQ(recv_done->byte_len, msg.size());
  EXPECT_EQ(recv_done->src.ip, t.a.addr());
  EXPECT_EQ(recv_done->src_qpn, (*qa)->qpn());
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), sink.begin()));
}

TEST(Smoke, UdWriteRecordSingleDatagram) {
  TwoHosts t;
  auto qa = *t.dev_a.create_ud_qp(
      {&t.pd_a, t.cq_a.get(), t.cq_a.get(), 7000, false});
  auto qb = *t.dev_b.create_ud_qp(
      {&t.pd_b, t.cq_b.get(), t.cq_b.get(), 7000, false});

  Bytes region(4096, 0);
  auto mr = t.pd_b.register_memory(ByteSpan{region},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);

  Bytes msg = make_pattern(1400, 7);
  SendWr wr;
  wr.wr_id = 9;
  wr.opcode = WrOpcode::kWriteRecord;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  wr.remote_stag = mr.stag;
  wr.remote_offset = 128;
  ASSERT_TRUE(qa->post_send(wr).ok());

  auto rec = t.cq_b->wait(10 * kMillisecond);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->opcode, WcOpcode::kRecvWriteRecord);
  EXPECT_EQ(rec->stag, mr.stag);
  EXPECT_EQ(rec->base_to, 128u);
  EXPECT_EQ(rec->byte_len, msg.size());
  ASSERT_EQ(rec->validity.ranges().size(), 1u);
  EXPECT_TRUE(rec->validity.complete(static_cast<u32>(msg.size())));
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), region.begin() + 128));
}

TEST(Smoke, RcConnectSendRecv) {
  TwoHosts t;
  std::shared_ptr<verbs::RcQueuePair> server_qp;
  ASSERT_TRUE(t.dev_b
                  .rc_listen(8000, {&t.pd_b, t.cq_b.get(), t.cq_b.get()},
                             [&](std::shared_ptr<verbs::RcQueuePair> qp) {
                               server_qp = std::move(qp);
                             })
                  .ok());

  auto client = *t.dev_a.rc_connect({&t.pd_a, t.cq_a.get(), t.cq_a.get()},
                                    t.b.endpoint(8000));
  bool up = false;
  client->on_established([&](Status st) { up = st.ok(); });
  t.topo.sim().run_while_pending([&] { return up && server_qp != nullptr; },
                                   100 * kMillisecond);
  ASSERT_TRUE(up);
  ASSERT_NE(server_qp, nullptr);
  EXPECT_TRUE(client->connected());

  Bytes msg = make_pattern(8000, 3);  // multi-segment over MSS
  Bytes sink(16384, 0);
  ASSERT_TRUE(server_qp->post_recv(RecvWr{1, ByteSpan{sink}}).ok());

  SendWr wr;
  wr.wr_id = 5;
  wr.local = ConstByteSpan{msg};
  ASSERT_TRUE(client->post_send(wr).ok());

  auto got = t.cq_b->wait(100 * kMillisecond);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->opcode, WcOpcode::kRecv);
  EXPECT_EQ(got->byte_len, msg.size());
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), sink.begin()));

  auto sent = t.cq_a->wait(100 * kMillisecond);
  ASSERT_TRUE(sent.has_value());
  EXPECT_TRUE(sent->status.ok());
}

TEST(Smoke, RcRdmaWriteThenNotify) {
  TwoHosts t;
  std::shared_ptr<verbs::RcQueuePair> server_qp;
  ASSERT_TRUE(t.dev_b
                  .rc_listen(8000, {&t.pd_b, t.cq_b.get(), t.cq_b.get()},
                             [&](auto qp) { server_qp = std::move(qp); })
                  .ok());
  auto client = *t.dev_a.rc_connect(
      {&t.pd_a, t.cq_a.get(), t.cq_a.get()}, t.b.endpoint(8000));
  t.topo.sim().run_while_pending([&] { return server_qp != nullptr; },
                                   100 * kMillisecond);
  ASSERT_NE(server_qp, nullptr);

  Bytes region(65536, 0);
  auto mr = t.pd_b.register_memory(ByteSpan{region},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);

  Bytes payload = make_pattern(40000, 11);
  SendWr write;
  write.wr_id = 1;
  write.opcode = WrOpcode::kRdmaWrite;
  write.local = ConstByteSpan{payload};
  write.remote_stag = mr.stag;
  write.remote_offset = 1000;
  ASSERT_TRUE(client->post_send(write).ok());

  // Figure 3 pattern: the write is followed by a Send that tells the target
  // the data is valid.
  Bytes note = bytes_of("done");
  Bytes note_sink(16, 0);
  ASSERT_TRUE(server_qp->post_recv(RecvWr{2, ByteSpan{note_sink}}).ok());
  SendWr notify;
  notify.wr_id = 3;
  notify.local = ConstByteSpan{note};
  ASSERT_TRUE(client->post_send(notify).ok());

  auto got = t.cq_b->wait(200 * kMillisecond);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->wr_id, 2u);
  // Tagged data was placed before the notifying send (in-order stream).
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         region.begin() + 1000));
}

TEST(Smoke, RcRdmaRead) {
  TwoHosts t;
  std::shared_ptr<verbs::RcQueuePair> server_qp;
  ASSERT_TRUE(t.dev_b
                  .rc_listen(8000, {&t.pd_b, t.cq_b.get(), t.cq_b.get()},
                             [&](auto qp) { server_qp = std::move(qp); })
                  .ok());
  auto client = *t.dev_a.rc_connect(
      {&t.pd_a, t.cq_a.get(), t.cq_a.get()}, t.b.endpoint(8000));
  t.topo.sim().run_while_pending([&] { return server_qp != nullptr; },
                                   100 * kMillisecond);
  ASSERT_NE(server_qp, nullptr);

  Bytes remote_data = make_pattern(20000, 21);
  auto mr = t.pd_b.register_memory(ByteSpan{remote_data},
                                   verbs::kLocalRead | verbs::kRemoteRead);

  Bytes sink(20000, 0);
  SendWr read;
  read.wr_id = 77;
  read.opcode = WrOpcode::kRdmaRead;
  read.remote_stag = mr.stag;
  read.remote_offset = 0;
  read.read_sink = ByteSpan{sink};
  read.read_len = static_cast<u32>(sink.size());
  ASSERT_TRUE(client->post_send(read).ok());

  auto done = t.cq_a->wait(200 * kMillisecond);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->wr_id, 77u);
  EXPECT_EQ(done->opcode, WcOpcode::kRdmaRead);
  EXPECT_TRUE(done->status.ok());
  EXPECT_EQ(sink, remote_data);
}

TEST(Smoke, UdLargeMessageMultiDatagram) {
  TwoHosts t;
  auto qa = *t.dev_a.create_ud_qp(
      {&t.pd_a, t.cq_a.get(), t.cq_a.get(), 0, false});
  auto qb = *t.dev_b.create_ud_qp(
      {&t.pd_b, t.cq_b.get(), t.cq_b.get(), 0, false});

  // 256 KB: four 64 KB-class datagrams, each IP-fragmented on the wire.
  Bytes msg = make_pattern(256 * 1024, 99);
  Bytes sink(256 * 1024, 0);
  ASSERT_TRUE(qb->post_recv(RecvWr{1, ByteSpan{sink}}).ok());

  SendWr wr;
  wr.wr_id = 4;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  ASSERT_TRUE(qa->post_send(wr).ok());

  auto got = t.cq_b->wait(100 * kMillisecond);
  ASSERT_TRUE(got.has_value()) << "large UD message did not complete";
  EXPECT_EQ(got->byte_len, msg.size());
  EXPECT_EQ(sink, msg);
}

}  // namespace
}  // namespace dgiwarp
