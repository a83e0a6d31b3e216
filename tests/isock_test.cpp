// iWARP socket interface tests: datagram sockets over send/recv and
// Write-Record data paths, stream sockets, native passthrough, the advert
// handshake, and what closing a socket or destroying a stack releases.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "isock/isock.hpp"
#include "ledger_check.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

using isock::ISockConfig;
using isock::ISockStack;
using isock::SockType;
using isock::XferMode;

struct Rig {
  explicit Rig(ISockConfig cfg = {})
      : a(topo, "a"), b(topo, "b"), dev_a(a), dev_b(b),
        io_a(dev_a, cfg), io_b(dev_b, cfg) {}
  sim::Topology topo;
  host::Host a, b;
  verbs::Device dev_a, dev_b;
  ISockStack io_a, io_b;
};

TEST(ISock, DatagramSendRecvRoundtrip) {
  Rig r;
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());

  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());

  Bytes msg = make_pattern(900, 5);
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{msg}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);

  auto got = r.io_b.recvfrom(sfd);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, msg);
  EXPECT_EQ(got->first.ip, r.a.addr());

  // Reply to the sender's source address.
  Bytes reply = bytes_of("pong");
  ASSERT_TRUE(r.io_b.sendto(sfd, got->first, ConstByteSpan{reply}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);
  auto back = r.io_a.recvfrom(cfd);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->second, reply);
}

TEST(ISock, DatagramWriteRecordPathDeliversData) {
  ISockConfig cfg;
  cfg.ud_mode = XferMode::kWriteRecord;
  Rig r(cfg);
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());

  // First send triggers HELLO/ADVERT then flushes via Write-Record.
  Bytes m1 = make_pattern(1200, 1);
  Bytes m2 = make_pattern(2200, 2);
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{m1}).ok());
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{m2}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 20 * kMillisecond);

  auto g1 = r.io_b.recvfrom(sfd);
  auto g2 = r.io_b.recvfrom(sfd);
  ASSERT_TRUE(g1.has_value());
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g1->second, m1);
  EXPECT_EQ(g2->second, m2);
}

TEST(ISock, WriteRecordManyMessagesRotateSlots) {
  ISockConfig cfg;
  cfg.ud_mode = XferMode::kWriteRecord;
  cfg.pool_slots = 4;
  cfg.slot_bytes = 4096;
  Rig r(cfg);
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());

  int received = 0;
  r.io_b.set_datagram_handler(sfd, [&](host::Endpoint, ConstByteSpan d) {
    EXPECT_EQ(d.size(), 512u);
    ++received;
  });
  for (int i = 0; i < 12; ++i) {
    Bytes m = make_pattern(512, static_cast<u32>(i));
    ASSERT_TRUE(
        r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{m}).ok());
    r.topo.sim().run_until(r.topo.sim().now() + 2 * kMillisecond);
  }
  EXPECT_EQ(received, 12);
}

TEST(ISock, NativePassthroughMatchesInterface) {
  ISockConfig cfg;
  cfg.use_iwarp = false;
  Rig r(cfg);
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());

  Bytes msg = make_pattern(1400, 9);
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{msg}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 5 * kMillisecond);
  auto got = r.io_b.recvfrom(sfd);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, msg);
}

TEST(ISock, StreamConnectSendReceive) {
  Rig r;
  auto lfd = *r.io_b.socket(SockType::kStream);
  ASSERT_TRUE(r.io_b.bind(lfd, 8080).ok());
  int server_conn = -1;
  Bytes server_got;
  ASSERT_TRUE(r.io_b
                  .listen(lfd,
                          [&](int fd) {
                            server_conn = fd;
                            r.io_b.set_stream_handler(
                                fd, [&](ConstByteSpan d) {
                                  server_got.insert(server_got.end(),
                                                    d.begin(), d.end());
                                });
                          })
                  .ok());

  auto cfd = *r.io_a.socket(SockType::kStream);
  bool connected = false;
  ASSERT_TRUE(r.io_a
                  .connect(cfd, r.b.endpoint(8080),
                           [&](Status st) { connected = st.ok(); })
                  .ok());
  r.topo.sim().run_while_pending([&] { return connected; }, kSecond);
  ASSERT_TRUE(connected);

  Bytes msg = make_pattern(20'000, 7);
  EXPECT_EQ(r.io_a.send(cfd, ConstByteSpan{msg}), msg.size());
  r.topo.sim().run_while_pending([&] { return server_got.size() >= msg.size(); },
                                   kSecond);
  EXPECT_EQ(server_got, msg);
  ASSERT_GE(server_conn, 0);

  // Echo back over the accepted connection.
  Bytes reply = make_pattern(5'000, 8);
  Bytes client_got;
  r.io_a.set_stream_handler(cfd, [&](ConstByteSpan d) {
    client_got.insert(client_got.end(), d.begin(), d.end());
  });
  EXPECT_EQ(r.io_b.send(server_conn, ConstByteSpan{reply}), reply.size());
  r.topo.sim().run_while_pending(
      [&] { return client_got.size() >= reply.size(); }, kSecond);
  EXPECT_EQ(client_got, reply);
}

TEST(ISock, DatagramHandlerPushDelivery) {
  Rig r;
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  int count = 0;
  std::size_t bytes = 0;
  r.io_b.set_datagram_handler(sfd, [&](host::Endpoint, ConstByteSpan d) {
    ++count;
    bytes += d.size();
  });
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());
  for (int i = 0; i < 5; ++i) {
    Bytes m = make_pattern(100 + static_cast<std::size_t>(i), 3);
    ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{m}).ok());
  }
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(bytes, 100u + 101 + 102 + 103 + 104);
}

// A datagram read through recvfrom() counts as received, on the iWARP
// path and the native one alike.
TEST(ISock, StatsTrackTraffic) {
  for (const bool use_iwarp : {true, false}) {
    ISockConfig cfg;
    cfg.use_iwarp = use_iwarp;
    Rig r(cfg);
    auto sfd = *r.io_b.socket(SockType::kDatagram);
    ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
    auto cfd = *r.io_a.socket(SockType::kDatagram);
    ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());
    Bytes msg(256, 1);
    ASSERT_TRUE(
        r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{msg}).ok());
    r.topo.sim().run_until(r.topo.sim().now() + 5 * kMillisecond);
    ASSERT_TRUE(r.io_b.recvfrom(sfd).has_value()) << use_iwarp;
    auto& reg = r.topo.sim().telemetry();
    EXPECT_EQ(reg.counter("isock.dgram.tx").value(), 1u) << use_iwarp;
    EXPECT_EQ(reg.counter("isock.bytes.tx").value(), 256u) << use_iwarp;
    EXPECT_EQ(reg.counter("isock.dgram.rx").value(), 1u) << use_iwarp;
    EXPECT_EQ(reg.counter("isock.bytes.rx").value(), 256u) << use_iwarp;
  }
}

// A socket without a handler holds 1,024 datagrams for recvfrom(); the
// rest are dropped, counted and traced. A native socket shares that queue.
TEST(ISock, NativeRxQueueOverflowDrops) {
  ISockConfig cfg;
  cfg.use_iwarp = false;
  Rig r(cfg);
  r.topo.sim().telemetry().trace().enable();
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());
  const Bytes m(10, 0);
  for (int i = 0; i < 1'100; ++i)
    ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{m}).ok());
  r.topo.sim().run();
  std::size_t received = 0;
  while (r.io_b.recvfrom(sfd).has_value()) ++received;
  EXPECT_EQ(received, 1'024u);
  EXPECT_EQ(r.topo.sim().telemetry().counter_value(
                "isock.pool.rx_dropped_no_slot"),
            76u);
  std::size_t traced = 0;
  for (const auto& ev : r.topo.sim().telemetry().trace().snapshot())
    if (ev.kind == telemetry::TraceKind::kIsockDropNoSlot) ++traced;
  EXPECT_GT(traced, 0u);
}

TEST(ISock, CloseReleasesPort) {
  Rig r;
  auto fd1 = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(fd1, 9000).ok());
  ASSERT_TRUE(r.io_b.close(fd1).ok());
  auto fd2 = *r.io_b.socket(SockType::kDatagram);
  EXPECT_TRUE(r.io_b.bind(fd2, 9000).ok());
}

TEST(ISock, CloseDeregistersTheReceivePool) {
  Rig r;
  const verbs::ProtectionDomain& pd = r.io_b.pd();
  const std::size_t regions = pd.registered_regions();
  const i64 mr_bytes = r.b.ledger().category("iwarp.mr");

  auto fd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(fd, 9000).ok());
  const u32 stag = r.io_b.pool_stag(fd);
  ASSERT_NE(stag, 0u);
  EXPECT_EQ(pd.registered_regions(), regions + 1);
  EXPECT_GT(r.b.ledger().category("iwarp.mr"), mr_bytes);
  EXPECT_TRUE(pd.stags().check(stag, 0, 1, verbs::kLocalWrite).ok());

  ASSERT_TRUE(r.io_b.close(fd).ok());
  EXPECT_EQ(pd.registered_regions(), regions);
  EXPECT_EQ(r.b.ledger().category("iwarp.mr"), mr_bytes);
  auto stale = pd.stags().check(stag, 0, 1, verbs::kLocalWrite);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), Errc::kAccessDenied);

  // Destroying the stack releases its PD, and with it a pool that was
  // never closed.
  const i64 pd_bytes = r.b.ledger().category("iwarp.pd");
  auto io = std::make_unique<ISockStack>(r.dev_b);
  auto old_fd = *io->socket(SockType::kDatagram);
  ASSERT_TRUE(io->bind(old_fd, 9001).ok());
  EXPECT_GT(r.b.ledger().category("iwarp.pd"), pd_bytes);
  EXPECT_GT(r.b.ledger().category("iwarp.mr"), mr_bytes);
  io.reset();
  EXPECT_EQ(r.b.ledger().category("iwarp.pd"), pd_bytes);
  EXPECT_EQ(r.b.ledger().category("iwarp.mr"), mr_bytes);
}

// A datagram socket owns its QP, its CQs and its registered pool, so a
// server that churns per-call sockets leaves nothing behind.
TEST(ISock, CloseReleasesTheSocketsCqs) {
  Rig r;
  const auto baseline = r.b.ledger().categories();
  for (int i = 0; i < 1'000; ++i) {
    auto fd = *r.io_b.socket(SockType::kDatagram, 2, 2'048);
    ASSERT_TRUE(r.io_b.bind(fd, 9000).ok());
    ASSERT_TRUE(r.io_b.close(fd).ok());
  }
  expect_ledger_at(r.b.ledger(), baseline);

  // A socket on the churned port still completes receives.
  auto sfd = *r.io_b.socket(SockType::kDatagram, 2, 2'048);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  const Bytes msg = make_pattern(900, 7);
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{msg}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);
  auto got = r.io_b.recvfrom(sfd);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, msg);
}

TEST(ISock, StreamCloseReleasesTheSocketsCqs) {
  Rig r;
  auto lfd = *r.io_b.socket(SockType::kStream, 4, 2'048);
  ASSERT_TRUE(r.io_b.bind(lfd, 8080).ok());
  std::vector<int> accepted;
  ASSERT_TRUE(
      r.io_b.listen(lfd, [&](int fd) { accepted.push_back(fd); }).ok());
  const auto client_baseline = r.a.ledger().categories();
  const auto server_baseline = r.b.ledger().categories();

  // Connect, accept, then close both ends, 50 times over.
  for (int i = 0; i < 50; ++i) {
    auto cfd = *r.io_a.socket(SockType::kStream, 4, 2'048);
    bool connected = false;
    ASSERT_TRUE(r.io_a
                    .connect(cfd, r.b.endpoint(8080),
                             [&](Status st) { connected = st.ok(); })
                    .ok());
    r.topo.sim().run_while_pending(
        [&] { return connected && accepted.size() == std::size_t(i) + 1; },
        r.topo.sim().now() + kSecond);
    ASSERT_TRUE(connected);
    ASSERT_EQ(accepted.size(), std::size_t(i) + 1);
    ASSERT_TRUE(r.io_a.close(cfd).ok());
    ASSERT_TRUE(r.io_b.close(accepted.back()).ok());
    r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);
    // A closed TCP socket is freed at close, not when its voided
    // retransmit timer fires (at least 200 ms later).
    ASSERT_EQ(r.a.ledger().category("tcp.sock"), 0) << "cycle " << i;
    ASSERT_EQ(r.b.ledger().category("tcp.sock"), 0) << "cycle " << i;
  }
  expect_ledger_at(r.a.ledger(), client_baseline);
  expect_ledger_at(r.b.ledger(), server_baseline);

  // The listener still accepts, and the new connection carries data.
  auto cfd = *r.io_a.socket(SockType::kStream, 4, 2'048);
  bool connected = false;
  ASSERT_TRUE(r.io_a
                  .connect(cfd, r.b.endpoint(8080),
                           [&](Status st) { connected = st.ok(); })
                  .ok());
  r.topo.sim().run_while_pending(
      [&] { return connected && accepted.size() == 51; },
      r.topo.sim().now() + kSecond);
  ASSERT_TRUE(connected);
  ASSERT_EQ(accepted.size(), 51u);
  Bytes got;
  r.io_b.set_stream_handler(accepted.back(), [&](ConstByteSpan d) {
    append(got, d);
  });
  const Bytes msg = make_pattern(1'500, 7);
  EXPECT_EQ(r.io_a.send(cfd, ConstByteSpan{msg}), msg.size());
  r.topo.sim().run_while_pending([&] { return got.size() >= msg.size(); },
                                   r.topo.sim().now() + kSecond);
  EXPECT_EQ(got, msg);
}

TEST(ISock, ClosingAListenerStopsListening) {
  Rig r;
  auto old_fd = *r.io_b.socket(SockType::kStream);
  ASSERT_TRUE(r.io_b.bind(old_fd, 8080).ok());
  int old_accepts = 0;
  ASSERT_TRUE(r.io_b.listen(old_fd, [&](int) { ++old_accepts; }).ok());
  ASSERT_TRUE(r.io_b.close(old_fd).ok());

  // The port is free again: a new socket listens there and gets the next
  // connection; the closed listener's handler never runs.
  auto new_fd = *r.io_b.socket(SockType::kStream);
  ASSERT_TRUE(r.io_b.bind(new_fd, 8080).ok());
  int new_accepts = 0;
  ASSERT_TRUE(r.io_b.listen(new_fd, [&](int) { ++new_accepts; }).ok());
  auto cfd = *r.io_a.socket(SockType::kStream);
  bool connected = false;
  ASSERT_TRUE(r.io_a
                  .connect(cfd, r.b.endpoint(8080),
                           [&](Status st) { connected = st.ok(); })
                  .ok());
  r.topo.sim().run_while_pending(
      [&] { return connected && new_accepts == 1; },
      r.topo.sim().now() + kSecond);
  EXPECT_TRUE(connected);
  EXPECT_EQ(new_accepts, 1);
  EXPECT_EQ(old_accepts, 0);
}

// Destroying a stack withdraws what its sockets hold on the host: the
// listener's TCP port, the native socket's UDP port, the CQ handlers and a
// pending credit flush. New stacks then own both ports.
TEST(ISock, DestroyingAStackReleasesItsPorts) {
  Rig r;
  ISockConfig native;
  native.use_iwarp = false;
  int old_accepts = 0;
  int old_fd = -1;
  auto cfd = *r.io_a.socket(SockType::kStream);
  {
    ISockStack old_io(r.dev_b);
    ISockStack old_native(r.dev_b, native);
    auto lfd = *old_io.socket(SockType::kStream);
    ASSERT_TRUE(old_io.bind(lfd, 8080).ok());
    ASSERT_TRUE(old_io
                    .listen(lfd,
                            [&](int fd) {
                              ++old_accepts;
                              old_fd = fd;
                            })
                    .ok());
    auto ufd = *old_native.socket(SockType::kDatagram);
    ASSERT_TRUE(old_native.bind(ufd, 9000).ok());

    // One message on an accepted connection leaves a credit flush pending.
    bool connected = false;
    ASSERT_TRUE(r.io_a
                    .connect(cfd, r.b.endpoint(8080),
                             [&](Status st) { connected = st.ok(); })
                    .ok());
    r.topo.sim().run_while_pending(
        [&] { return connected && old_accepts == 1; },
        r.topo.sim().now() + kSecond);
    ASSERT_EQ(old_accepts, 1);
    std::size_t got = 0;
    old_io.set_stream_handler(old_fd,
                              [&](ConstByteSpan d) { got += d.size(); });
    const Bytes msg = make_pattern(100, 3);
    ASSERT_EQ(r.io_a.send(cfd, ConstByteSpan{msg}), msg.size());
    r.topo.sim().run_while_pending([&] { return got == msg.size(); },
                                   r.topo.sim().now() + kSecond);
    ASSERT_EQ(got, msg.size());
  }
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);

  ISockStack new_io(r.dev_b);
  ISockStack new_native(r.dev_b, native);
  auto lfd = *new_io.socket(SockType::kStream);
  ASSERT_TRUE(new_io.bind(lfd, 8080).ok());
  int new_accepts = 0;
  ASSERT_TRUE(new_io.listen(lfd, [&](int) { ++new_accepts; }).ok());
  auto ufd = *new_native.socket(SockType::kDatagram);
  ASSERT_TRUE(new_native.bind(ufd, 9000).ok());

  auto cfd2 = *r.io_a.socket(SockType::kStream);
  bool connected = false;
  ASSERT_TRUE(r.io_a
                  .connect(cfd2, r.b.endpoint(8080),
                           [&](Status st) { connected = st.ok(); })
                  .ok());
  r.topo.sim().run_while_pending(
      [&] { return connected && new_accepts == 1; },
      r.topo.sim().now() + kSecond);
  EXPECT_TRUE(connected);
  EXPECT_EQ(new_accepts, 1);
  EXPECT_EQ(old_accepts, 1);

  const Bytes dgram = make_pattern(300, 4);
  host::UdpSocket* peer = *r.a.udp().open(0);
  ASSERT_TRUE(peer->send_to(r.b.endpoint(9000), ConstByteSpan{dgram}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);
  auto got = new_native.recvfrom(ufd);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, dgram);
}

// Whole stacks churned on one Device: each binds a datagram socket and
// listens on a stream socket, and is destroyed with both still open. Its PD,
// the pool registered there, its QPs and ports all go with it.
TEST(ISock, DestroyedStacksReturnTheLedgerToBaseline) {
  Rig r;
  const auto baseline = r.b.ledger().categories();
  for (int i = 0; i < 1'000; ++i) {
    ISockStack io(r.dev_b);
    auto dfd = *io.socket(SockType::kDatagram, 2, 2'048);
    ASSERT_TRUE(io.bind(dfd, 9000).ok());
    auto lfd = *io.socket(SockType::kStream);
    ASSERT_TRUE(io.bind(lfd, 8080).ok());
    ASSERT_TRUE(io.listen(lfd, [](int) {}).ok());
  }
  expect_ledger_at(r.b.ledger(), baseline);
}

// A passive RC QP still in its MPA handshake refers to the PD of the stack
// that listened for it. The stack is destroyed first; the QP then finishes
// its handshake, finds no one to accept it and dies without touching the
// PD (the ASan tree checks that).
TEST(ISock, DestroyingAStackMidHandshakeIsSafe) {
  Rig r;
  const auto baseline = r.b.ledger().categories();
  auto& sim = r.topo.sim();
  auto cfd = *r.io_a.socket(SockType::kStream);
  int accepts = 0;
  {
    ISockStack io(r.dev_b);
    auto lfd = *io.socket(SockType::kStream);
    ASSERT_TRUE(io.bind(lfd, 8080).ok());
    ASSERT_TRUE(io.listen(lfd, [&](int) { ++accepts; }).ok());
    ASSERT_TRUE(r.io_a.connect(cfd, r.b.endpoint(8080), [](Status) {}).ok());
    // TCP is up and the listener has built the passive QP, which waits for
    // the client's MPA request.
    sim.run_while_pending(
        [&] { return r.b.ledger().category("iwarp.rc_qp") > 0; },
        sim.now() + kSecond);
    ASSERT_GT(r.b.ledger().category("iwarp.rc_qp"), 0);
    ASSERT_EQ(accepts, 0);
  }
  sim.run();
  EXPECT_EQ(accepts, 0);
  expect_ledger_at(r.b.ledger(), baseline);
}

}  // namespace
}  // namespace dgiwarp
