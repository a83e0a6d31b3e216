// Tests for the multi-switch Topology layer: leaf-spine wiring, programmed
// forwarding tables, unicast across trunk LAGs, oversubscription queueing,
// per-link fault isolation, and whole-topology determinism.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hoststack/host.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

Bytes small_msg() { return bytes_of("ping"); }

TEST(Topology, DefaultIsThePapersOneSwitchTestbed) {
  sim::Topology topo;
  EXPECT_EQ(topo.leaves(), 1u);
  EXPECT_FALSE(topo.has_spine());
  host::Host a(topo, "a"), b(topo, "b");
  EXPECT_EQ(topo.hosts(), 2u);
  EXPECT_EQ(topo.leaf(0).name(), "switch0");
  EXPECT_EQ(topo.leaf_of(0), 0u);
  EXPECT_EQ(topo.host_uplink(0).name(), "a->switch0");
  EXPECT_EQ(topo.host_downlink(1).name(), "switch0->b");
}

TEST(Topology, EgressFaultsOnlyAffectThatDirection) {
  sim::Topology topo;
  host::Host a(topo, "a"), b(topo, "b");
  topo.host_uplink(0).set_faults(sim::Faults::bernoulli(1.0));  // drop all a->*
  auto* ua = *a.udp().open(100);
  auto* ub = *b.udp().open(100);
  Bytes msg = bytes_of("y");
  (void)ua->send_to({b.addr(), 100}, ConstByteSpan{msg});
  (void)ub->send_to({a.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_EQ(ub->datagrams_received(), 0u);  // a's egress is dead
  EXPECT_EQ(ua->datagrams_received(), 1u);  // b's egress is fine
}

TEST(Topology, CrossTrunkLearningAndUnicast) {
  sim::Topology::Params p;
  p.leaves = 2;
  sim::Topology topo(p);
  ASSERT_TRUE(topo.has_spine());
  // Round-robin placement: a -> leaf0, b -> leaf1.
  host::Host a(topo, "a"), b(topo, "b");
  ASSERT_EQ(topo.leaf_of(0), 0u);
  ASSERT_EQ(topo.leaf_of(1), 1u);

  auto* ua = *a.udp().open(100);
  auto* ub = *b.udp().open(100);
  Bytes msg = small_msg();

  // The first a->b frame crosses leaf0, the spine and leaf1.
  (void)ua->send_to({b.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_EQ(ub->datagrams_received(), 1u);
  EXPECT_GE(topo.trunk_up(0).stats().frames_delivered.value(), 1u);

  // All three switches know a's address, so the reply is unicast too.
  (void)ub->send_to({a.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_EQ(ua->datagrams_received(), 1u);
  EXPECT_GE(topo.spine().frames_forwarded(), 1u);
  // And b's reply crossed the reverse trunk direction.
  EXPECT_GE(topo.trunk_down(0).stats().frames_delivered.value(), 1u);
}

TEST(Topology, ProgrammedFdbForwardsTheFirstCrossLeafFrame) {
  sim::Topology::Params p;
  p.leaves = 4;
  sim::Topology topo(p);
  // 8 hosts round-robin: h0,h4 on leaf0; h1,h5 on leaf1; ...
  std::vector<std::unique_ptr<host::Host>> hosts;
  for (int i = 0; i < 8; ++i)
    hosts.push_back(
        std::make_unique<host::Host>(topo, 'h' + std::to_string(i)));
  for (std::size_t i = 0; i < topo.leaves(); ++i)
    EXPECT_EQ(topo.leaf(i).fdb_size(), topo.hosts()) << "leaf " << i;
  EXPECT_EQ(topo.spine().fdb_size(), topo.hosts());

  // h0 (leaf0) -> h1 (leaf1) before either has sent anything: the first
  // frame is forwarded, and no bystander sees a copy.
  auto* u0 = *hosts[0]->udp().open(100);
  auto* u1 = *hosts[1]->udp().open(100);
  Bytes msg = small_msg();
  (void)u0->send_to({hosts[1]->addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_EQ(u1->datagrams_received(), 1u);
  EXPECT_GE(topo.spine().frames_forwarded(), 1u);
  for (std::size_t h = 0; h < topo.hosts(); ++h) {
    if (h == 1) continue;
    EXPECT_EQ(topo.host_downlink(h).stats().frames_offered.value(), 0u)
        << "bystander h" << h;
  }
}

TEST(Topology, SameLeafTrafficStaysOffTheTrunk) {
  sim::Topology::Params p;
  p.leaves = 2;
  sim::Topology topo(p);
  // 4 hosts round-robin: a,c on leaf0; b,d on leaf1.
  host::Host a(topo, "a"), b(topo, "b"), c(topo, "c"), d(topo, "d");
  auto* ua = *a.udp().open(100);
  auto* uc = *c.udp().open(100);
  Bytes msg = small_msg();

  // One exchange first. The topology programmed every FDB, so even these
  // frames are unicast.
  (void)ua->send_to({c.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  (void)uc->send_to({a.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();

  // Same-leaf traffic must not touch the trunk.
  const u64 trunk_before = topo.trunk_up(0).stats().frames_offered.value();
  (void)ua->send_to({c.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_EQ(uc->datagrams_received(), 2u);
  EXPECT_EQ(topo.trunk_up(0).stats().frames_offered.value(), trunk_before);
  (void)b;
  (void)d;
}

TEST(Topology, TrunkOversubscriptionQueuesUnderIncast) {
  // 4 senders on leaf0 incast toward one receiver on leaf1, across a
  // single slow trunk cable: the trunk's output queue must grow.
  sim::Topology::Params p;
  p.leaves = 2;
  p.trunk_link.bandwidth_bps = 1e9;  // 10:1 slower than the host links
  sim::Topology topo(p);
  host::Host rx_host(topo, "rx");  // host 0 -> leaf0
  host::Host rx2(topo, "rx2");     // host 1 -> leaf1 (the incast target)
  std::vector<std::unique_ptr<host::Host>> senders;
  for (int i = 0; i < 8; ++i)
    senders.push_back(std::make_unique<host::Host>(
        topo, 's' + std::to_string(i)));  // alternating leaves

  EXPECT_GT(topo.oversubscription(0), 1.0);

  auto* urx = *rx2.udp().open(100);
  std::vector<host::UdpSocket*> socks;
  std::vector<std::size_t> leaf0_senders;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (topo.leaf_of(2 + i) != 0) continue;  // only leaf0 hosts incast
    socks.push_back(*senders[i]->udp().open(200));
    leaf0_senders.push_back(i);
  }
  ASSERT_GE(socks.size(), 3u);

  Bytes burst(8000, 0xAB);  // bigger than one MTU => several frames each
  for (std::size_t round = 0; round < 4; ++round)
    for (std::size_t i = 0; i < socks.size(); ++i)
      (void)socks[i]->send_to({rx2.addr(), 100}, ConstByteSpan{burst});
  topo.sim().run();

  EXPECT_GT(urx->datagrams_received(), 0u);
  // The slow trunk serialized a backlog: its high-water queue depth must
  // exceed one in-flight frame.
  EXPECT_GT(topo.trunk_up(0).max_queue_depth(), 1u);
  (void)rx_host;
}

TEST(Topology, PerLinkFaultIsolation) {
  // Faults::isolated gives a link its own draw stream: configuring loss on
  // host A's uplink must not change WHEN host B's (fault-free) traffic
  // arrives, relative to a run where A has no faults at all.
  // Placement: a,c on leaf0; b,d on leaf1. The measured flow (b -> d) and
  // the faulted flow (a -> c) are leaf-local on DIFFERENT leaves, so no
  // queue is shared — any arrival-time difference could only come from the
  // fault model perturbing the shared RNG stream, which isolated() forbids.
  auto arrivals_for_b = [](bool a_lossy) {
    sim::Topology::Params p;
    p.leaves = 2;
    sim::Topology topo(p);
    host::Host a(topo, "a"), b(topo, "b"), c(topo, "c"), d(topo, "d");
    if (a_lossy)
      topo.host_uplink(0).set_faults(
          sim::Faults::bernoulli(0.5).isolated(1234));

    auto* ua = *a.udp().open(100);
    auto* ub = *b.udp().open(100);
    auto* uc = *c.udp().open(100);
    auto* ud_ = *d.udp().open(100);
    std::vector<TimeNs> b_to_d_arrivals;
    ud_->set_handler([&](host::Endpoint, Bytes, bool) {
      b_to_d_arrivals.push_back(topo.sim().now());
    });

    Bytes msg = bytes_of("payload");
    // One exchange first, identical in both runs: the faulted uplink is not
    // on these paths.
    (void)uc->send_to({a.addr(), 100}, ConstByteSpan{msg});
    topo.sim().run();
    (void)ud_->send_to({b.addr(), 100}, ConstByteSpan{msg});
    topo.sim().run();
    b_to_d_arrivals.clear();

    for (int i = 0; i < 20; ++i) {
      (void)ua->send_to({c.addr(), 100}, ConstByteSpan{msg});
      (void)ub->send_to({d.addr(), 100}, ConstByteSpan{msg});
    }
    topo.sim().run();
    return b_to_d_arrivals;
  };

  const auto clean = arrivals_for_b(false);
  const auto beside_lossy = arrivals_for_b(true);
  ASSERT_FALSE(clean.empty());
  EXPECT_EQ(clean, beside_lossy);
}

TEST(Topology, SixtyFourNodeSameSeedDeterminism) {
  auto run = [] {
    sim::Topology::Params p;
    p.leaves = 4;
    p.trunk_cables = 2;
    sim::Topology topo(p);
    std::vector<std::unique_ptr<host::Host>> hosts;
    std::vector<host::UdpSocket*> socks;
    for (int i = 0; i < 64; ++i) {
      hosts.push_back(std::make_unique<host::Host>(
          topo, 'h' + std::to_string(i)));
      socks.push_back(*hosts.back()->udp().open(100));
    }
    Bytes msg = bytes_of("deterministic");
    // Every host sends to its neighbour-by-17 (coprime => full cycle), so
    // traffic crosses every leaf and both trunk LAG members.
    for (int round = 0; round < 3; ++round)
      for (std::size_t i = 0; i < socks.size(); ++i)
        (void)socks[i]->send_to(
            {hosts[(i * 17 + 1) % hosts.size()]->addr(), 100},
            ConstByteSpan{msg});
    topo.sim().run();
    return topo.sim().telemetry().to_json();
  };

  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Topology, TrunkLagSpreadsFlowsAcrossCables) {
  sim::Topology::Params p;
  p.leaves = 2;
  p.trunk_cables = 2;
  sim::Topology topo(p);
  std::vector<std::unique_ptr<host::Host>> hosts;
  std::vector<host::UdpSocket*> socks;
  for (int i = 0; i < 16; ++i) {
    hosts.push_back(
        std::make_unique<host::Host>(topo, 'h' + std::to_string(i)));
    socks.push_back(*hosts.back()->udp().open(100));
  }
  Bytes msg = small_msg();
  // Many distinct (src, dst) flows leaf0 -> leaf1; the per-flow hash should
  // light up both LAG members.
  for (std::size_t i = 0; i < socks.size(); i += 2)
    (void)socks[i]->send_to({hosts[(i + 5) % 16]->addr(), 100},
                            ConstByteSpan{msg});
  topo.sim().run();
  const u64 cable0 = topo.trunk_up(0, 0).stats().frames_offered.value();
  const u64 cable1 = topo.trunk_up(0, 1).stats().frames_offered.value();
  EXPECT_GT(cable0 + cable1, 0u);
  EXPECT_GT(cable0, 0u);
  EXPECT_GT(cable1, 0u);
}

// One run of the flap scenario: 8 leaf0->leaf1 UDP flows over a 2-cable
// trunk LAG, each flow's probes spread across several flap periods, with
// per-flow cable attribution taken from the LAG members' offered counters
// (probed flow-by-flow, so the deltas are unambiguous).
struct FlapRun {
  std::vector<int> flow_cable;        // which LAG member each flow hashed to
  std::vector<u64> flow_received;     // probes delivered per flow
  u64 cable1_offered = 0;
  u64 cable1_dropped = 0;
  std::size_t cable1_max_depth = 0;
};

FlapRun run_flap_scenario(bool flap_cable0) {
  sim::Topology::Params p;
  p.leaves = 2;
  p.trunk_cables = 2;
  sim::Topology topo(p);
  std::vector<std::unique_ptr<host::Host>> hosts;
  std::vector<host::UdpSocket*> socks;
  for (int i = 0; i < 16; ++i) {
    hosts.push_back(
        std::make_unique<host::Host>(topo, 'h' + std::to_string(i)));
    socks.push_back(*hosts.back()->udp().open(100));
  }
  if (flap_cable0)
    topo.trunk_up(0, 0).set_faults(
        sim::Faults::flapping(100 * kMicrosecond, 50 * kMicrosecond)
            .isolated(42));

  // Receiver->sender frames first (reverse path: trunk_up(1)/trunk_down(0),
  // untouched by the flap). The FDBs are programmed, so the probes below
  // are pure unicast and attribute cleanly.
  const Bytes msg = bytes_of("flap-probe");
  for (std::size_t f = 0; f < 8; ++f)
    (void)socks[2 * f + 1]->send_to({hosts[2 * f]->addr(), 100},
                                    ConstByteSpan{msg});
  topo.sim().run();

  constexpr int kProbes = 40;
  FlapRun out;
  for (std::size_t f = 0; f < 8; ++f) {
    const u64 before0 = topo.trunk_up(0, 0).stats().frames_offered.value();
    const u64 before1 = topo.trunk_up(0, 1).stats().frames_offered.value();
    const u64 rx_before = socks[2 * f + 1]->datagrams_received();
    // Spread the probes across four 100 us flap periods so a flapping
    // cable is guaranteed to eat some of them.
    for (int m = 0; m < kProbes; ++m)
      topo.sim().after(static_cast<TimeNs>(m) * 10 * kMicrosecond,
                       [&socks, &hosts, &msg, f] {
                         (void)socks[2 * f]->send_to(
                             {hosts[2 * f + 1]->addr(), 100},
                             ConstByteSpan{msg});
                       });
    topo.sim().run();
    const u64 d0 = topo.trunk_up(0, 0).stats().frames_offered.value() -
                   before0;
    const u64 d1 = topo.trunk_up(0, 1).stats().frames_offered.value() -
                   before1;
    EXPECT_EQ(d0 + d1, static_cast<u64>(kProbes));
    EXPECT_TRUE(d0 == 0 || d1 == 0);  // one flow, one LAG member
    out.flow_cable.push_back(d0 > 0 ? 0 : 1);
    out.flow_received.push_back(socks[2 * f + 1]->datagrams_received() -
                                rx_before);
  }
  out.cable1_offered = topo.trunk_up(0, 1).stats().frames_offered.value();
  out.cable1_dropped = topo.trunk_up(0, 1).stats().frames_dropped.value();
  out.cable1_max_depth = topo.trunk_up(0, 1).max_queue_depth();
  return out;
}

TEST(Topology, TrunkLagFlapLeavesSiblingCableFlowsUntouched) {
  const FlapRun clean = run_flap_scenario(false);
  const FlapRun flapped = run_flap_scenario(true);

  // The scenario must exercise both LAG members to mean anything.
  int on0 = 0, on1 = 0;
  for (int c : clean.flow_cable) (c == 0 ? on0 : on1)++;
  ASSERT_GT(on0, 0);
  ASSERT_GT(on1, 0);

  // Per-flow hash stability: the flap must not migrate any flow to the
  // other cable (rehashing would reorder datagrams fabric-wide).
  EXPECT_EQ(flapped.flow_cable, clean.flow_cable);
  EXPECT_EQ(flapped.cable1_offered, clean.cable1_offered);

  u64 lost_on0 = 0;
  for (std::size_t f = 0; f < clean.flow_cable.size(); ++f) {
    if (clean.flow_cable[f] == 1) {
      // Flows hashed to the healthy sibling deliver every probe, flap or
      // not: fault isolation is per LAG member, not per trunk.
      EXPECT_EQ(clean.flow_received[f], 40u) << "flow " << f;
      EXPECT_EQ(flapped.flow_received[f], 40u) << "flow " << f;
    } else {
      EXPECT_EQ(clean.flow_received[f], 40u) << "flow " << f;
      lost_on0 += 40u - flapped.flow_received[f];
    }
  }
  EXPECT_GT(lost_on0, 0u);  // the flap genuinely bit the flapped cable

  // Sibling queue telemetry stays isolated: cable1 saw identical load, so
  // its depth high-water mark and drop counter match the clean run.
  EXPECT_EQ(flapped.cable1_max_depth, clean.cable1_max_depth);
  EXPECT_EQ(flapped.cable1_dropped, clean.cable1_dropped);
  EXPECT_EQ(flapped.cable1_dropped, 0u);
}

}  // namespace
}  // namespace dgiwarp
