// Unit + integration tests for the user-space kernel stack: IP
// fragmentation/reassembly, UDP datagram semantics, and the TCP
// implementation (handshake, bulk transfer, loss recovery, teardown).
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "hoststack/host.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

struct Net {
  u64 count(const std::string& key) {
    return topo.sim().telemetry().counter_value(key);
  }
  sim::Topology topo;
  host::Host a{topo, "a"};
  host::Host b{topo, "b"};
};

// What a UDP socket's handler was given, taken oldest first.
struct Inbox {
  explicit Inbox(host::UdpSocket* s) {
    s->set_handler([this](host::Endpoint src, Bytes d, bool) {
      got.emplace_back(src, std::move(d));
    });
  }
  std::optional<std::pair<host::Endpoint, Bytes>> recv() {
    if (got.empty()) return std::nullopt;
    auto front = std::move(got.front());
    got.pop_front();
    return front;
  }
  std::deque<std::pair<host::Endpoint, Bytes>> got;
};

TEST(Udp, SmallDatagramRoundtrip) {
  Net n;
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Inbox rx(sb);
  for (std::size_t size : {100, 0}) {
    Bytes msg = make_pattern(size, 1);
    ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{msg}).ok());
    n.topo.sim().run();
    auto got = rx.recv();
    ASSERT_TRUE(got.has_value()) << size;
    EXPECT_EQ(got->second, msg);
    EXPECT_EQ(got->first.ip, n.a.addr());
    EXPECT_EQ(got->first.port, sa->local_port());
  }
}

TEST(Udp, MaxSizeDatagramFragmentsAndReassembles) {
  Net n;
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Inbox rx(sb);
  Bytes msg = make_pattern(host::kMaxUdpPayload, 2);
  ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{msg}).ok());
  n.topo.sim().run();
  auto got = rx.recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second.size(), host::kMaxUdpPayload);
  EXPECT_EQ(got->second, msg);
}

TEST(Udp, DatagramsAtTheOneFragmentEdgeRoundtrip) {
  // 1,472 B + 8 B of UDP header fill one 1,480 B IP fragment: IP puts its
  // header in front of the datagram's own buffer. One byte more takes two
  // fragments and reassembly.
  Net n;
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Inbox rx(sb);
  u64 fragments = 0;
  const std::pair<std::size_t, u64> cases[] = {{1'472, 1}, {1'473, 2}};
  for (const auto& [size, frags] : cases) {
    Bytes msg = make_pattern(size, static_cast<u32>(size));
    ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{msg}).ok());
    n.topo.sim().run();
    fragments += frags;
    EXPECT_EQ(n.count("hoststack.ip.fragments_tx"), fragments) << size;
    auto got = rx.recv();
    ASSERT_TRUE(got.has_value()) << size;
    EXPECT_EQ(got->second, msg) << size;
  }
}

TEST(Udp, BodyBeyondTheLengthFieldIsCut) {
  // A hand-built single-fragment IP frame whose UDP length field covers
  // 100 of the 150 B that follow the UDP header.
  Net n;
  auto* sb = *n.b.udp().open(700);
  Inbox rx(sb);
  const Bytes body = make_pattern(150, 4);
  sim::Frame f;
  f.src = n.a.addr();
  f.proto = sim::kProtoIpv4;
  WireWriter w(f.payload);
  w.u8be(host::kIpProtoUdp);
  w.u8be(0);   // no more fragments
  w.u16be(9);  // ident
  w.u32be(0);  // offset
  w.u32be(static_cast<u32>(host::kUdpHeaderBytes + body.size()));
  w.u64be(0);
  w.u16be(5'000);  // source port
  w.u16be(700);
  w.u16be(static_cast<u16>(host::kUdpHeaderBytes + 100));
  w.u16be(0);
  w.bytes(body);
  n.b.ip().on_frame(std::move(f));
  n.topo.sim().run();
  auto got = rx.recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, Bytes(body.begin(), body.begin() + 100));
  EXPECT_EQ(got->first.port, 5'000);
}

TEST(Udp, OversizeDatagramRejected) {
  Net n;
  auto* sa = *n.a.udp().open(0);
  Bytes msg(host::kMaxUdpPayload + 1, 0);
  EXPECT_EQ(sa->send_to({n.b.addr(), 700}, ConstByteSpan{msg}).code(),
            Errc::kInvalidArgument);
}

TEST(Udp, FragmentLossDropsWholeDatagram) {
  Net n;
  // Drop exactly one mid-datagram fragment.
  n.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{3});
    return f;
  }());
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Inbox rx(sb);
  Bytes big = make_pattern(20'000, 3);  // 14 fragments
  Bytes small = make_pattern(200, 4);
  ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{big}).ok());
  ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{small}).ok());
  n.topo.sim().run();
  // The big datagram is gone (all-or-nothing); the small one arrived.
  auto got = rx.recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, small);
  EXPECT_FALSE(rx.recv().has_value());
  EXPECT_GE(n.count("hoststack.ip.reassembly_expired"), 1u);
}

// Regression: a duplicated fragment used to count twice towards the
// reassembly byte total, completing the datagram early with a zero-filled
// hole where the still-missing fragment belonged. The receiver must either
// get the exact payload or nothing.
TEST(Udp, DuplicatedFragmentsDoNotCorruptReassembly) {
  Net n;
  n.topo.host_uplink(0).set_faults(sim::Faults::duplicating(1.0));
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Inbox rx(sb);
  Bytes big = make_pattern(20'000, 5);  // 14 fragments, every one duplicated
  ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{big}).ok());
  n.topo.sim().run();
  auto got = rx.recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, big);                // byte-exact, no holes
  EXPECT_FALSE(rx.recv().has_value());        // and exactly once
}

// Hand-built IP fragments, fed straight to a host's IP layer so that their
// offsets need not follow the MTU: a 2,000 B datagram of protocol
// kTestProto from host a, cut at [begin, end).
struct Fragments {
  static constexpr u8 kTestProto = 253;  // reserved for experiments
  static constexpr u32 kTotal = 2'000;
  Net n;
  Bytes dgram = make_pattern(kTotal, 9);
  std::vector<Bytes> got;

  Fragments() {
    n.b.ip().register_protocol(kTestProto, [this](u32, Bytes d, bool) {
      got.push_back(std::move(d));
    });
  }
  // The header layout of the IpHeader comment in ip.cpp: proto(1) flags(1)
  // ident(2) offset(4) total(4) reserved(8).
  void feed(u32 begin, u32 end) {
    sim::Frame f;
    f.src = n.a.addr();
    f.proto = sim::kProtoIpv4;
    WireWriter w(f.payload);
    w.u8be(kTestProto);
    w.u8be(end < kTotal ? 0x01 : 0x00);  // more fragments
    w.u16be(7);                          // ident
    w.u32be(begin);
    w.u32be(kTotal);
    w.u64be(0);
    w.bytes(ConstByteSpan{dgram}.subspan(begin, end - begin));
    n.b.ip().on_frame(std::move(f));
  }
};

TEST(Ip, PartiallyOverlappingFragmentsDeliverOnceByteExact) {
  Fragments fr;
  fr.feed(0, 1'000);
  fr.feed(500, 1'500);  // 500 B already covered, 500 B new
  EXPECT_TRUE(fr.got.empty());  // 1,500 of 2,000 B: still a hole
  fr.feed(1'500, 2'000);
  ASSERT_EQ(fr.got.size(), 1u);
  EXPECT_EQ(fr.got[0], fr.dgram);
  fr.n.topo.sim().run();  // the reassembly timer finds nothing left
  EXPECT_EQ(fr.got.size(), 1u);
  EXPECT_EQ(fr.n.count("hoststack.ip.reassembly_expired"), 0u);
}

TEST(Ip, OverlappingFragmentsThatLeaveAHoleExpire) {
  Fragments fr;
  fr.feed(0, 1'000);
  fr.feed(500, 1'000);  // wholly inside the first
  fr.n.topo.sim().run();
  EXPECT_TRUE(fr.got.empty());
  EXPECT_EQ(fr.n.count("hoststack.ip.reassembly_expired"), 1u);
}

TEST(Udp, PortDemultiplexing) {
  Net n;
  auto* s1 = *n.b.udp().open(700);
  auto* s2 = *n.b.udp().open(701);
  Inbox rx1(s1), rx2(s2);
  auto* sa = *n.a.udp().open(0);
  Bytes m1 = bytes_of("one"), m2 = bytes_of("two");
  (void)sa->send_to({n.b.addr(), 700}, ConstByteSpan{m1});
  (void)sa->send_to({n.b.addr(), 701}, ConstByteSpan{m2});
  n.topo.sim().run();
  EXPECT_EQ(rx1.recv()->second, m1);
  EXPECT_EQ(rx2.recv()->second, m2);
}

TEST(Udp, PortInUseAndEphemeralAllocation) {
  Net n;
  ASSERT_TRUE(n.a.udp().open(700).ok());
  EXPECT_EQ(n.a.udp().open(700).code(), Errc::kInvalidArgument);
  auto e1 = *n.a.udp().open(0);
  auto e2 = *n.a.udp().open(0);
  EXPECT_NE(e1->local_port(), e2->local_port());
  EXPECT_GE(e1->local_port(), 49'152);
}

struct TcpPair {
  Net n;
  host::TcpSocket::Ptr client, server;
  Bytes server_rx, client_rx;

  void connect(u16 port = 800) {
    (void)n.b.tcp().listen(port, [&](host::TcpSocket::Ptr s) {
      server = s;
      s->on_data([&](ConstByteSpan d, bool) {
        server_rx.insert(server_rx.end(), d.begin(), d.end());
      });
    });
    client = *n.a.tcp().connect({n.b.addr(), port});
    client->on_data([&](ConstByteSpan d, bool) {
      client_rx.insert(client_rx.end(), d.begin(), d.end());
    });
    bool up = false;
    client->on_connect([&](Status st) { up = st.ok(); });
    // The accept callback fires on SYN; wait until the final ACK lands and
    // both ends are Established.
    n.topo.sim().run_while_pending(
        [&] { return up && server && server->established(); }, kSecond);
    ASSERT_TRUE(up);
    ASSERT_NE(server, nullptr);
  }
};

TEST(Tcp, HandshakeEstablishesBothEnds) {
  TcpPair p;
  p.connect();
  EXPECT_TRUE(p.client->established());
  EXPECT_TRUE(p.server->established());
  EXPECT_EQ(p.client->remote().port, 800);
}

TEST(Tcp, ConnectToClosedPortFails) {
  Net n;
  auto sock = *n.a.tcp().connect({n.b.addr(), 999});
  bool closed = false;
  sock->on_close([&] { closed = true; });
  n.topo.sim().run_while_pending([&] { return closed; }, kSecond);
  EXPECT_TRUE(closed);  // RST from the closed port
}

TEST(Tcp, UnansweredConnectGivesUpWithTimeout) {
  Net n;
  // Black-hole everything a sends: SYNs vanish, so no RST ever comes back.
  // The consecutive-RTO cap must abort the connect instead of retrying
  // forever (which would also make sim().run() spin for eternity).
  n.topo.host_uplink(0).set_faults(sim::Faults::bernoulli(1.0));
  auto sock = *n.a.tcp().connect({n.b.addr(), 800});
  Status result = Status::Ok();
  bool connect_cb = false;
  sock->on_connect([&](Status s) {
    connect_cb = true;
    result = s;
  });
  bool closed = false;
  sock->on_close([&] { closed = true; });
  n.topo.sim().run();
  EXPECT_TRUE(connect_cb);
  EXPECT_EQ(result.code(), Errc::kTimedOut);
  EXPECT_TRUE(closed);
  EXPECT_EQ(sock->state(), host::TcpSocket::State::kClosed);
}

TEST(Tcp, BulkTransferIntegrity) {
  TcpPair p;
  p.connect();
  const Bytes data = make_pattern(2 * MiB, 7);
  std::size_t sent = 0;
  std::function<void()> pump = [&] {
    while (sent < data.size()) {
      const std::size_t nn =
          p.client->send(ConstByteSpan{data}.subspan(sent));
      if (nn == 0) break;
      sent += nn;
    }
  };
  p.client->on_writable(pump);
  pump();
  p.n.topo.sim().run_while_pending(
      [&] { return p.server_rx.size() >= data.size(); }, 10 * kSecond);
  EXPECT_EQ(p.server_rx, data);
  EXPECT_EQ(p.client->retransmissions(), 0u);
}

TEST(Tcp, BidirectionalTransfer) {
  TcpPair p;
  p.connect();
  const Bytes up = make_pattern(50'000, 1);
  const Bytes down = make_pattern(70'000, 2);
  (void)p.client->send(ConstByteSpan{up});
  (void)p.server->send(ConstByteSpan{down});
  p.n.topo.sim().run_while_pending(
      [&] {
        return p.server_rx.size() >= up.size() &&
               p.client_rx.size() >= down.size();
      },
      10 * kSecond);
  EXPECT_EQ(p.server_rx, up);
  EXPECT_EQ(p.client_rx, down);
}

TEST(Tcp, RecoversFromPacketLoss) {
  TcpPair p;
  p.connect();
  p.n.topo.host_uplink(0).set_faults(sim::Faults::bernoulli(0.02));
  const Bytes data = make_pattern(512 * KiB, 9);
  std::size_t sent = 0;
  std::function<void()> pump = [&] {
    while (sent < data.size()) {
      const std::size_t nn =
          p.client->send(ConstByteSpan{data}.subspan(sent));
      if (nn == 0) break;
      sent += nn;
    }
  };
  p.client->on_writable(pump);
  pump();
  const bool done = p.n.topo.sim().run_while_pending(
      [&] { return p.server_rx.size() >= data.size(); }, 60 * kSecond);
  ASSERT_TRUE(done) << "got " << p.server_rx.size();
  EXPECT_EQ(p.server_rx, data);
  EXPECT_GT(p.client->retransmissions(), 0u);
}

TEST(Tcp, ReorderedAndDuplicatedSegmentsDeliverOnce) {
  // Reordered segments arrive ahead of the gap and are parked; duplicates
  // re-deliver bytes already taken in order. Every byte must still reach
  // the application exactly once and in order, and once the last ACK lands
  // the send buffer must be empty again.
  TcpPair p;
  p.connect();
  sim::Faults faults = sim::Faults::bernoulli(0.01);
  faults.reorder_rate = 0.05;
  faults.reorder_delay = 30 * kMicrosecond;
  faults.dup_rate = 0.05;
  p.n.topo.host_uplink(0).set_faults(std::move(faults));
  const Bytes data = make_pattern(1 * MiB, 11);
  std::size_t sent = 0;
  std::function<void()> pump = [&] {
    while (sent < data.size()) {
      const std::size_t nn =
          p.client->send(ConstByteSpan{data}.subspan(sent));
      if (nn == 0) break;
      sent += nn;
    }
  };
  p.client->on_writable(pump);
  pump();
  const bool done = p.n.topo.sim().run_while_pending(
      [&] {
        return p.server_rx.size() >= data.size() &&
               p.client->send_buffer_space() == 256 * KiB;
      },
      60 * kSecond);
  ASSERT_TRUE(done) << "got " << p.server_rx.size();
  EXPECT_EQ(p.server_rx, data);
  EXPECT_EQ(p.n.topo.sim().telemetry().counter_value(
                "hoststack.tcp.bytes_delivered"),
            data.size());
  EXPECT_EQ(p.client->send_buffer_space(), 256 * KiB);
}

TEST(Tcp, GracefulCloseReachesPeer) {
  TcpPair p;
  p.connect();
  bool server_saw_close = false;
  p.server->on_close([&] { server_saw_close = true; });
  const Bytes tail = bytes_of("bye");
  (void)p.client->send(ConstByteSpan{tail});
  p.client->close();
  p.n.topo.sim().run_while_pending([&] { return server_saw_close; },
                                     kSecond);
  EXPECT_TRUE(server_saw_close);
  EXPECT_EQ(p.server_rx, tail);  // data before FIN all delivered
}

TEST(Tcp, AbortSendsRst) {
  TcpPair p;
  p.connect();
  bool server_saw_close = false;
  p.server->on_close([&] { server_saw_close = true; });
  p.client->abort();
  p.n.topo.sim().run_while_pending([&] { return server_saw_close; },
                                     kSecond);
  EXPECT_TRUE(server_saw_close);
}

TEST(Tcp, SendBufferBackpressure) {
  TcpPair p;
  p.connect();
  Bytes chunk(64 * 1024, 1);
  std::size_t accepted = 0;
  // Keep pushing synchronously; the buffer (256 KB) must cap acceptance.
  for (int i = 0; i < 32; ++i)
    accepted += p.client->send(ConstByteSpan{chunk});
  EXPECT_LE(accepted, 256u * 1024);
  EXPECT_GT(accepted, 0u);
}

TEST(Tcp, ConnectionCountTracksLifecycle) {
  TcpPair p;
  p.connect();
  EXPECT_EQ(p.n.a.tcp().connection_count(), 1u);
  EXPECT_EQ(p.n.b.tcp().connection_count(), 1u);
  p.client->close();
  p.server->close();
  p.n.topo.sim().run();
  EXPECT_EQ(p.n.a.tcp().connection_count(), 0u);
  EXPECT_EQ(p.n.b.tcp().connection_count(), 0u);
}

TEST(Tcp, EphemeralPortsAreDistinctSkipListenersAndRecycle) {
  // The ephemeral range [49152, 65535] holds 16,384 ports and a listener
  // takes one. The simulation never runs, so every socket stays in
  // SYN-SENT and keeps its port.
  Net n;
  constexpr u16 kListenPort = 49'153;
  ASSERT_TRUE(n.a.tcp().listen(kListenPort, [](host::TcpSocket::Ptr) {}).ok());
  std::vector<host::TcpSocket::Ptr> socks;
  std::set<u16> ports;
  for (int i = 0; i < 16'383; ++i) {
    auto r = n.a.tcp().connect({n.b.addr(), 800});
    ASSERT_TRUE(r.ok()) << "connect " << i;
    socks.push_back(*r);
    ports.insert(socks.back()->local().port);
  }
  EXPECT_EQ(ports.size(), 16'383u);
  EXPECT_GE(*ports.begin(), 49'152);
  EXPECT_FALSE(ports.contains(kListenPort));
  EXPECT_EQ(n.a.tcp().connect({n.b.addr(), 800}).code(),
            Errc::kResourceExhausted);

  // Closing a socket in SYN-SENT frees its port for the next connect.
  host::TcpSocket& victim = *socks[100];
  ASSERT_EQ(victim.state(), host::TcpSocket::State::kSynSent);
  victim.close();
  auto again = n.a.tcp().connect({n.b.addr(), 800});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->local().port, victim.local().port);
}

TEST(Ip, ReassemblyTimeoutExpiresPartials) {
  Net n;
  n.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{1});
    return f;
  }());
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  (void)sb;
  Bytes big = make_pattern(5000, 1);
  (void)sa->send_to({n.b.addr(), 700}, ConstByteSpan{big});
  n.topo.sim().run();  // includes the reassembly-timeout event
  EXPECT_EQ(n.count("hoststack.ip.reassembly_expired"), 1u);
}

}  // namespace
}  // namespace dgiwarp
